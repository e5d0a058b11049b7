package epnet

import (
	"fmt"
	"sort"
	"time"
)

// presets are the named paper-system configurations, lazily built so a
// preset always reflects the current library defaults.
var presets = map[string]struct {
	doc   string
	build func() Config
}{
	"small-fbfly": {
		"8-ary 2-flat (64 hosts), Search workload, halve/double — the fast default",
		DefaultConfig,
	},
	"paper-fbfly": {
		"the paper's simulated system: 15-ary 3-flat, 3,375 hosts (§4)",
		PaperConfig,
	},
	"paper-fbfly-independent": {
		"15-ary 3-flat with independent unidirectional channel control (§3.3.1)",
		func() Config {
			c := PaperConfig()
			c.Independent = true
			return c
		},
	},
	"paper-fattree": {
		"folded-Clos comparison point: two-level fat tree at the default scale",
		func() Config {
			c := DefaultConfig()
			c.Topology = TopoFatTree
			return c
		},
	},
	"paper-clos3": {
		"three-tier folded Clos built from radix-8 chips (Table 1's other column)",
		func() Config {
			c := DefaultConfig()
			c.Topology = TopoClos3
			c.K, c.C = 8, 8
			return c
		},
	},
	"resilience": {
		"8-ary 2-flat under seeded-random link faults (0.5 events/ms, 200 µs MTTR)",
		func() Config {
			c := DefaultConfig()
			c.Workload = WorkloadUniform
			c.FaultRate, c.FaultMTTR = 0.5, 200*time.Microsecond
			return c
		},
	},
}

// Preset returns the named paper-system configuration. The available
// names are listed by PresetNames; unknown names report them in the
// error.
func Preset(name string) (Config, error) {
	p, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("epnet: unknown preset %q (have %v)", name, PresetNames())
	}
	return p.build(), nil
}

// PresetNames lists the available Preset names, sorted, with
// PresetDoc providing the one-line description of each.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PresetDoc returns the one-line description of a preset ("" when
// unknown).
func PresetDoc(name string) string { return presets[name].doc }
