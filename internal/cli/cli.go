// Package cli is the one flag surface shared by every command that
// builds an epnet.Config. The flags are not declared here: Bind walks
// Config's struct tags (flag name and help text) and binds one flag per
// tagged field, so a Config field and its flag cannot drift apart. The
// commands differ only in their command-specific flags.
//
// Resolution precedence, lowest to highest:
//
//  1. the base Config the command binds with,
//  2. -preset (a named preset replaces the base),
//  3. -scenario (an embedded scenario, preset name, or file; its
//     config block overlays the result),
//  4. flags the user explicitly set on the command line.
//
// Only explicitly set flags apply — a flag left at its default never
// clobbers a preset or scenario value, and binding with a non-default
// base (as cmd/experiments does with the evaluation scale) keeps that
// base intact.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"epnet"
)

// Loader binds the shared simulation-config flags and resolves them to
// an epnet.Config.
type Loader struct {
	// Grid marks a command that runs many configurations (sweep,
	// experiments): its help notes that output files are numbered per
	// run, and flags tagged ",single-run" are not bound.
	Grid bool

	// Preset and Scenario mirror the -preset / -scenario flags.
	Preset   string
	Scenario string
	// Listen mirrors -listen, the live inspection address: deployment
	// wiring rather than a Config field.
	Listen string

	fs    *flag.FlagSet
	base  epnet.Config
	flags epnet.Config   // the bound flag values, defaults from base
	field map[string]int // flag name -> Config field index
	insp  *epnet.Inspector
}

// Bind registers the config flags on fs with defaults drawn from base.
func (l *Loader) Bind(fs *flag.FlagSet, base epnet.Config) {
	l.fs, l.base, l.flags = fs, base, base
	l.field = map[string]int{}

	fs.StringVar(&l.Preset, "preset", "",
		"start from a named preset ("+strings.Join(epnet.PresetNames(), " | ")+"); other flags override it")
	fs.StringVar(&l.Scenario, "scenario", "",
		"run a scenario: an embedded name ("+strings.Join(epnet.ScenarioNames(), " | ")+"), a preset name, or a scenario JSON file; explicit flags override its config block")
	fs.StringVar(&l.Listen, "listen", "",
		`serve live inspection HTTP on this address (e.g. ":9090"): /metrics, /snapshot, /profile, /flows, /debug/pprof/`)

	// The output path fields, by address: grid commands number them.
	outputs := map[*string]bool{}
	for _, p := range l.flags.OutputPaths() {
		outputs[p] = true
	}
	v := reflect.ValueOf(&l.flags).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, opt, _ := strings.Cut(tag.Get("flag"), ",")
		if name == "" || (l.Grid && opt == "single-run") {
			continue
		}
		help := tag.Get("help")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *string:
			if l.Grid && outputs[p] {
				help += "; each run gets a numeric suffix (telemetry.csv -> telemetry.000.csv)"
			}
			fs.StringVar(p, name, *p, help)
		case *int:
			fs.IntVar(p, name, *p, help)
		case *int64:
			fs.Int64Var(p, name, *p, help)
		case *float64:
			fs.Float64Var(p, name, *p, help)
		case *bool:
			fs.BoolVar(p, name, *p, help)
		case *time.Duration:
			fs.DurationVar(p, name, *p, help)
		default: // string-kinded enums: TopologyKind, WorkloadKind, ...
			sp := v.Field(i).Addr().Convert(reflect.TypeOf((*string)(nil))).Interface().(*string)
			fs.StringVar(sp, name, *sp, help)
		}
		l.field[name] = i
	}
}

// Resolve builds the Config from the bound base.
func (l *Loader) Resolve() (epnet.Config, error) { return l.ResolveFrom(l.base) }

// ResolveFrom builds the Config from an alternative base — the hook for
// commands whose base is itself flag-selected (cmd/experiments' -full).
// With -listen set, the first call starts the live inspector and every
// resolved Config carries it.
func (l *Loader) ResolveFrom(base epnet.Config) (epnet.Config, error) {
	cfg := base
	if l.Preset != "" {
		p, err := epnet.Preset(l.Preset)
		if err != nil {
			return epnet.Config{}, err
		}
		cfg = p
	}
	if l.Scenario != "" {
		s, err := epnet.LoadScenario(l.Scenario, cfg)
		if err != nil {
			return epnet.Config{}, err
		}
		cfg = s
	}
	dst, src := reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(l.flags)
	l.fs.Visit(func(f *flag.Flag) {
		if i, ok := l.field[f.Name]; ok {
			dst.Field(i).Set(src.Field(i))
		}
	})
	if l.Listen != "" && l.insp == nil {
		insp, addr, err := epnet.StartInspector(l.Listen)
		if err != nil {
			return epnet.Config{}, err
		}
		fmt.Fprintf(os.Stderr, "%s: inspector listening on http://%s\n", filepath.Base(l.fs.Name()), addr)
		l.insp = insp
	}
	if l.insp != nil {
		cfg.Inspector = l.insp
	}
	return cfg, nil
}
