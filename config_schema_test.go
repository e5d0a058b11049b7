package epnet

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// allFieldsConfig sets every Config field that has a wire form to a
// non-zero value, so the schema golden covers each key.
func allFieldsConfig(t *testing.T) Config {
	t.Helper()
	sc, err := LoadScenario("diurnal", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology: TopoClos3, K: 4, N: 3, C: 5,
		Workload: WorkloadTrace, Load: 0.25, TracePath: "t.trace",
		Policy: PolicyMinMax, TargetUtil: 0.75,
		Independent: true, Routing: RoutingDOR, ModeAwareReactivation: true,
		Reactivation: 100 * time.Nanosecond, Epoch: 1500 * time.Nanosecond,
		DynTopo: true,
		Warmup:  50 * time.Microsecond, Duration: 3 * time.Millisecond,
		Seed: 42, Shards: 3, MaxPacket: 1500,
		PowerSampleEvery: 20 * time.Microsecond,
		MetricsOut:       "m.csv", SampleInterval: 5 * time.Microsecond,
		TraceOut: "t.json", HeatmapOut: "h.csv", HistOut: "u.csv",
		Attribution: true, Profile: true, ProfileOut: "p.json",
		FlowTrace: true, FlowSample: 0.5, FlowsOut: "f.json",
		FailLinks: 2, FailAfter: 10 * time.Microsecond,
		Faults: "50us fail-link s0p8", FaultRate: 0.5, FaultMTTR: 100 * time.Microsecond,
		Scenario: sc.Scenario,
	}
}

// TestConfigJSONGolden pins Config's wire schema byte for byte: the
// encoding of the defaults, every preset, a scenario-carrying config
// and a config with every field set. A renamed key, a lost omitempty or
// a changed duration format shows up here before it breaks a scenario
// file in the wild. Regenerate with
//
//	EPNET_UPDATE_GOLDEN=1 go test -run TestConfigJSONGolden .
func TestConfigJSONGolden(t *testing.T) {
	all := allFieldsConfig(t)
	v := reflect.ValueOf(all)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Name != "Inspector" && v.Field(i).IsZero() {
			t.Errorf("allFieldsConfig leaves %s zero; set it so the golden covers its key", f.Name)
		}
	}
	diurnal, err := LoadScenario("diurnal", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"DefaultConfig", DefaultConfig()},
		{"PaperConfig", PaperConfig()},
	}
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"preset " + name, p})
	}
	cases = append(cases, []struct {
		name string
		cfg  Config
	}{{"scenario diurnal", diurnal}, {"all fields", all}}...)

	var sb strings.Builder
	for _, c := range cases {
		data, err := json.Marshal(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sb.WriteString("# " + c.name + "\n")
		sb.Write(data)
		sb.WriteString("\n")

		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(back, c.cfg) {
			t.Errorf("%s does not round-trip\nin:  %+v\nout: %+v", c.name, c.cfg, back)
		}
	}
	const golden = "testdata/config_json.golden"
	if os.Getenv("EPNET_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with EPNET_UPDATE_GOLDEN=1)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("Config JSON diverges from %s\nwant:\n%s\ngot:\n%s", golden, want, got)
	}
}

// TestConfigTags: every Config field but the runtime-only Inspector has
// a json key, and json keys and flag names are each unique.
func TestConfigTags(t *testing.T) {
	keys, flags := map[string]string{}, map[string]string{}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Name == "Inspector" {
			if key != "-" {
				t.Errorf("Inspector is runtime wiring and must stay json:\"-\", got %q", key)
			}
			continue
		}
		if key == "" || key == "-" {
			t.Errorf("%s has no json key", f.Name)
		} else if prev, dup := keys[key]; dup {
			t.Errorf("json key %q on both %s and %s", key, prev, f.Name)
		}
		keys[key] = f.Name
		name, _, _ := strings.Cut(f.Tag.Get("flag"), ",")
		if name == "" {
			continue
		}
		if prev, dup := flags[name]; dup {
			t.Errorf("flag -%s on both %s and %s", name, prev, f.Name)
		}
		flags[name] = f.Name
		if f.Tag.Get("help") == "" {
			t.Errorf("flag -%s (%s) has no help text", name, f.Name)
		}
	}
}

// TestScenarioDocsListConfigKeys: the Config section of
// docs/scenarios.md has a table row for every Config json key, naming
// its flag (or — for none).
func TestScenarioDocsListConfigKeys(t *testing.T) {
	data, err := os.ReadFile("docs/scenarios.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "### Config\n")
	section, _, _ = strings.Cut(section, "\n### ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `") {
			key, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
			rows[key] = line
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "-" {
			continue
		}
		row, ok := rows[key]
		if !ok {
			t.Errorf("docs/scenarios.md has no row for config key %q", key)
			continue
		}
		want := "—"
		if name, _, _ := strings.Cut(f.Tag.Get("flag"), ","); name != "" {
			want = "`-" + name + "`"
		}
		if !strings.Contains(row, want) {
			t.Errorf("docs row for %q does not name its flag %s: %s", key, want, row)
		}
	}
}

// outputField returns the Config field that output path p (one of
// c.OutputPaths()) addresses.
func outputField(t *testing.T, c *Config, p *string) reflect.StructField {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == any(p) {
			return v.Type().Field(i)
		}
	}
	t.Fatalf("output path %p is not a Config field", p)
	return reflect.StructField{}
}

// TestObservabilityDocsListOutputs: the outputs table of
// docs/observability.md has a row for every entry of the outputs table,
// naming its flag, Config field, formats and endpoint.
func TestObservabilityDocsListOutputs(t *testing.T) {
	data, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "## Flags, endpoints, outputs\n")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, " | "); strings.HasPrefix(line, "| ") && len(cells) == 5 {
			rows[strings.TrimPrefix(cells[0], "| ")] = line
		}
	}
	var probe Config
	for _, out := range outputs {
		row, ok := rows[out.name]
		if !ok {
			t.Errorf("docs/observability.md has no row for output %q", out.name)
			continue
		}
		var want []string
		if out.path != nil {
			f := outputField(t, &probe, out.path(&probe))
			flag, _, _ := strings.Cut(f.Tag.Get("flag"), ",")
			want = append(want, "`-"+flag+" f`", "`Config."+f.Name+"`")
		}
		for _, format := range out.formats {
			want = append(want, "`."+format+"`")
		}
		if out.endpoint != "" {
			want = append(want, "`"+out.endpoint+"`")
		}
		for _, w := range want {
			if !strings.Contains(row, w) {
				t.Errorf("docs/observability.md row for %q does not name %s:\n%s", out.name, w, row)
			}
		}
	}
}
