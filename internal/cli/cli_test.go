package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"epnet"
)

// resolve binds a fresh Loader against base, parses args, and resolves.
func resolve(t *testing.T, base epnet.Config, args ...string) epnet.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, base)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLoaderPrecedence pins the documented resolution order: base, then
// -preset (replaces), then -scenario (overlays), then explicitly set
// flags — and, crucially, that flag defaults never clobber anything.
func TestLoaderPrecedence(t *testing.T) {
	base := epnet.DefaultConfig()
	base.Warmup = 123 * time.Microsecond

	// No flags: the base comes back untouched.
	if got := resolve(t, base); got.Warmup != base.Warmup || got.K != base.K {
		t.Errorf("bare resolve mutated the base: %+v", got)
	}

	// A non-default base survives binding: the flag defaults mirror it,
	// so parsing no flags cannot regress it to library defaults.
	big := epnet.DefaultConfig()
	big.K, big.C = 15, 15
	if got := resolve(t, big); got.K != 15 || got.C != 15 {
		t.Errorf("non-default base regressed: k=%d c=%d", got.K, got.C)
	}

	// -preset replaces the base wholesale.
	p, err := epnet.Preset("paper-clos3")
	if err != nil {
		t.Fatal(err)
	}
	got := resolve(t, base, "-preset", "paper-clos3")
	if got.Topology != p.Topology || got.K != p.K {
		t.Errorf("-preset did not replace the base: got %s k=%d, want %s k=%d",
			got.Topology, got.K, p.Topology, p.K)
	}

	// An explicit flag overrides the preset; untouched preset fields stay.
	got = resolve(t, base, "-preset", "paper-clos3", "-k", "4")
	if got.K != 4 {
		t.Errorf("explicit -k lost to the preset: k=%d", got.K)
	}
	if got.Topology != p.Topology {
		t.Errorf("explicit -k clobbered unrelated preset fields: topology=%s", got.Topology)
	}

	// A scenario's config block overlays the base, and explicit flags
	// still win over the scenario.
	dir := t.TempDir()
	doc := `{"version": 1, "config": {"seed": 99, "k": 6, "c": 6},
	  "phases": [{"name": "only", "duration": "100us",
	    "traffic": [{"workload": "uniform"}]}]}`
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got = resolve(t, base, "-scenario", path)
	if got.Seed != 99 || got.K != 6 {
		t.Errorf("scenario config block not applied: seed=%d k=%d", got.Seed, got.K)
	}
	if got.Warmup != base.Warmup {
		t.Errorf("scenario clobbered a base field it never set: warmup=%v", got.Warmup)
	}
	got = resolve(t, base, "-scenario", path, "-seed", "7")
	if got.Seed != 7 {
		t.Errorf("explicit -seed lost to the scenario: seed=%d", got.Seed)
	}
	if got.K != 6 {
		t.Errorf("explicit -seed clobbered the scenario's k: %d", got.K)
	}

	// Output paths follow the same precedence: a scenario's config block
	// sets them, and an explicit output flag overrides only its own.
	outDoc := `{"version": 1, "config": {"metrics_out": "m.csv", "flows_out": "f.json", "sample_interval": "50us"},
	  "phases": [{"name": "only", "duration": "100us",
	    "traffic": [{"workload": "uniform"}]}]}`
	outPath := filepath.Join(dir, "out.json")
	if err := os.WriteFile(outPath, []byte(outDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	got = resolve(t, base, "-scenario", outPath, "-flows-out", "g.json")
	if got.MetricsOut != "m.csv" || got.SampleInterval != 50*time.Microsecond {
		t.Errorf("scenario output settings dropped: metrics=%q interval=%v", got.MetricsOut, got.SampleInterval)
	}
	if got.FlowsOut != "g.json" {
		t.Errorf("explicit -flows-out lost to the scenario: %q", got.FlowsOut)
	}

	// Unknown references and bad scenario files are loader errors.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, base)
	if err := fs.Parse([]string{"-preset", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Resolve(); err == nil {
		t.Error("unknown preset resolved without error")
	}
}

// TestResolveFrom pins the cmd/experiments hook: the alternative base
// wins over the bound one, and explicit flags still apply on top.
func TestResolveFrom(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, epnet.DefaultConfig())
	if err := fs.Parse([]string{"-warmup", "77us"}); err != nil {
		t.Fatal(err)
	}
	alt := epnet.PaperConfig()
	got, err := l.ResolveFrom(alt)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != alt.K || got.Topology != alt.Topology {
		t.Errorf("ResolveFrom ignored the alternative base: k=%d", got.K)
	}
	if got.Warmup != 77*time.Microsecond {
		t.Errorf("explicit flag not applied over the alternative base: %v", got.Warmup)
	}
}

// TestLoaderPrecedenceEveryFlag walks every bound Config flag: a
// scenario's config block beats the base, and an explicit flag beats the
// scenario.
func TestLoaderPrecedenceEveryFlag(t *testing.T) {
	var l Loader
	l.Bind(flag.NewFlagSet("test", flag.ContinueOnError), epnet.DefaultConfig())
	typ := reflect.TypeOf(epnet.Config{})
	dir := t.TempDir()
	for name, i := range l.field {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		// Two distinct non-default values: the scenario's (JSON) and the
		// flag's (command-line text).
		var inScenario, onFlag string
		switch f.Type.Kind() {
		case reflect.String:
			inScenario, onFlag = `"from-scenario"`, "from-flag"
		case reflect.Bool:
			inScenario, onFlag = "true", "false"
		case reflect.Float64:
			inScenario, onFlag = "0.25", "0.5"
		case reflect.Int, reflect.Int64:
			if f.Type == reflect.TypeOf(time.Duration(0)) {
				inScenario, onFlag = `"3us"`, "5us"
			} else {
				inScenario, onFlag = "3", "5"
			}
		default:
			t.Fatalf("-%s: no test values for %v", name, f.Type)
		}
		doc := `{"version": 1, "config": {"` + key + `": ` + inScenario + `},
		  "phases": [{"name": "only", "duration": "100us", "traffic": [{"workload": "uniform"}]}]}`
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		fromScenario := reflect.ValueOf(resolve(t, epnet.DefaultConfig(), "-scenario", path)).Field(i)
		fromFlag := reflect.ValueOf(resolve(t, epnet.DefaultConfig(), "-scenario", path, "-"+name+"="+onFlag)).Field(i)
		if def := reflect.ValueOf(epnet.DefaultConfig()).Field(i); fromScenario.Equal(def) {
			t.Errorf("-%s: scenario value %s did not apply", name, inScenario)
		}
		if fromFlag.Equal(fromScenario) {
			t.Errorf("-%s: explicit flag %s lost to the scenario's %s", name, onFlag, inScenario)
		}
	}
}
