package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"epnet/internal/sim"
)

// valid is a document exercising every DSL feature at once.
const valid = `{
  "version": 1,
  "name": "kitchen-sink",
  "notes": "one of everything",
  "config": {"workload": "search", "seed": 7},
  "phases": [
    {"name": "calm", "duration": "200us",
     "traffic": [{"workload": "search", "load": 0.1}]},
    {"name": "peak", "duration": "600us",
     "traffic": [
       {"workload": "uniform", "load": 0.4,
        "shape": {"kind": "diurnal", "min_load": 0.05, "steps": 12}},
       {"workload": "migration", "load": 0.2}
     ],
     "policy": {"kind": "min-max", "target_util": 0.7},
     "chaos": {"script": "50us fail-link s0p8; 100us repair-link s0p8",
               "rate": 2, "mttr": "60us",
               "groups": [{"kind": "rack-power", "size": 4},
                          {"kind": "optics-bundle", "size": 2},
                          {"kind": "switches", "switches": [0, 3]}],
               "group_rate": 1, "group_mttr": "80us"}},
    {"name": "drain", "duration": "100us"}
  ]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "kitchen-sink" || len(s.Phases) != 3 {
		t.Fatalf("parsed %q with %d phases", s.Name, len(s.Phases))
	}
	if got, want := s.TotalDuration(), 900*time.Microsecond; got != want {
		t.Errorf("TotalDuration = %v, want %v", got, want)
	}
	peak := s.Phases[1]
	if len(peak.Traffic) != 2 || peak.Policy == nil || peak.Chaos == nil {
		t.Fatalf("peak phase lost parts: %+v", peak)
	}
	if sh := peak.Traffic[0].Shape; sh == nil || sh.Kind != ShapeDiurnal || sh.Steps != 12 {
		t.Errorf("shape = %+v", peak.Traffic[0].Shape)
	}
	if len(peak.Chaos.Groups) != 3 {
		t.Errorf("groups = %+v", peak.Chaos.Groups)
	}
	if len(s.Config) == 0 {
		t.Error("config block dropped")
	}
	// The document round-trips: marshal, reparse, compare totals.
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("round-trip reparse: %v\n%s", err, out)
	}
	if s2.TotalDuration() != s.TotalDuration() || len(s2.Phases) != len(s.Phases) {
		t.Error("round trip changed the scenario")
	}
}

// TestParseRejects is the malformed-document table: every entry must be
// rejected, with the error pointing at the offending path.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string // substring the error must contain
	}{
		{"bad version", `{"version": 2, "phases": [{"name": "a", "duration": "1us"}]}`, "version"},
		{"no phases", `{"version": 1}`, "phases"},
		{"unknown top-level field", `{"version": 1, "phasez": []}`, "phasez"},
		{"unknown phase field", `{"version": 1, "phases": [{"name": "a", "duration": "1us", "trafic": []}]}`, "trafic"},
		{"unknown shape field", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "shape": {"kindd": "ramp"}}]}]}`, "kindd"},
		{"unnamed phase", `{"version": 1, "phases": [{"duration": "1us"}]}`, "phases[0].name"},
		{"duplicate phase name", `{"version": 1, "phases": [
			{"name": "a", "duration": "1us"}, {"name": "a", "duration": "1us"}]}`, "phases[1].name"},
		{"zero duration", `{"version": 1, "phases": [{"name": "a", "duration": "0s"}]}`, "duration"},
		{"bad duration", `{"version": 1, "phases": [{"name": "a", "duration": "fast"}]}`, "fast"},
		{"unknown workload", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "bitcoin"}]}]}`, "workload"},
		{"load out of range", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "load": 1.5}]}]}`, "load"},
		{"load below the floor", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "load": 1e-12}]}]}`, "phases[0].traffic[0].load"},
		{"denormal load", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "search", "load": 5e-324}]}]}`, "phases[0].traffic[0].load"},
		{"shape without peak", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "shape": {"kind": "ramp"}}]}]}`, "load"},
		{"min above peak", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "load": 0.1,
			             "shape": {"kind": "diurnal", "min_load": 0.5}}]}]}`, "min_load"},
		{"unknown shape kind", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"traffic": [{"workload": "uniform", "load": 0.1, "shape": {"kind": "square"}}]}]}`, "shape.kind"},
		{"empty chaos", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {}}]}`, "chaos"},
		{"bad chaos script", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {"script": "sometime explode everything"}}]}`, "script"},
		{"group rate without groups", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {"group_rate": 1}}]}`, "group_rate"},
		{"sizeless group", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {"group_rate": 1, "groups": [{"kind": "rack-power"}]}}]}`, "size"},
		{"memberless switch group", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {"group_rate": 1, "groups": [{"kind": "switches"}]}}]}`, "switches"},
		{"unknown group kind", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"chaos": {"group_rate": 1, "groups": [{"kind": "blast-radius", "size": 2}]}}]}`, "kind"},
		{"kindless policy", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"policy": {"target_util": 0.5}}]}`, "policy.kind"},
		{"policy target out of range", `{"version": 1, "phases": [{"name": "a", "duration": "1us",
			"policy": {"kind": "min-max", "target_util": 1.5}}]}`, "target_util"},
		{"trailing garbage", `{"version": 1, "phases": [{"name": "a", "duration": "1us"}]} {}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted: %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Errorf("error %q does not mention %q", err, tc.path)
			}
		})
	}
}

func TestDurationRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"250us"`, 250 * time.Microsecond},
		{`"1.5ms"`, 1500 * time.Microsecond},
		{`"2h45m"`, 2*time.Hour + 45*time.Minute},
		{`1000`, time.Microsecond}, // bare nanoseconds
	}
	for _, tc := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if d.D() != tc.want {
			t.Errorf("%s parsed to %v, want %v", tc.in, d.D(), tc.want)
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Duration
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-parse %s: %v", out, err)
		}
		if back != d {
			t.Errorf("%s -> %s -> %v, want %v", tc.in, out, back.D(), d.D())
		}
	}
	for _, bad := range []string{`"fast"`, `"12 parsecs"`, `true`} {
		var d Duration
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("accepted %s as %v", bad, d.D())
		}
	}
	// The String form is ASCII so files survive any editor.
	if s := Duration(250 * time.Microsecond).String(); s != "250us" {
		t.Errorf("String = %q, want 250us", s)
	}
}

// TestPhaseSeedPinned pins the derivation's properties: it depends only
// on (seed, phase, stream), distinct labels give distinct seeds, and
// the separator keeps ("a","bc") and ("ab","c") apart. Inserting a
// phase into a scenario must not change any other phase's seeds — the
// derivation has no positional input at all, which this enumerates.
func TestPhaseSeedPinned(t *testing.T) {
	if PhaseSeed(1, "day", "traffic:0") != PhaseSeed(1, "day", "traffic:0") {
		t.Fatal("not deterministic")
	}
	seen := map[int64]string{}
	for _, phase := range []string{"day", "night", "peak", "drain"} {
		for _, stream := range []string{"traffic:0", "traffic:1", "chaos", "chaos-groups"} {
			s := PhaseSeed(42, phase, stream)
			if prev, dup := seen[s]; dup {
				t.Errorf("collision: %s/%s and %s", phase, stream, prev)
			}
			seen[s] = phase + "/" + stream
		}
	}
	if PhaseSeed(42, "a", "bc") == PhaseSeed(42, "ab", "c") {
		t.Error("separator missing: label boundary does not matter")
	}
	if PhaseSeed(1, "day", "chaos") == PhaseSeed(2, "day", "chaos") {
		t.Error("run seed ignored")
	}
}

func TestSliceSeed(t *testing.T) {
	if sliceSeed(99, 0) != 99 {
		t.Error("slice 0 must keep the stream seed (one-step shape == unshaped)")
	}
	if sliceSeed(99, 1) == 99 || sliceSeed(99, 1) == sliceSeed(99, 2) {
		t.Error("later slices must re-roll")
	}
}

// countTarget records injections with the engine time of each.
type countTarget struct {
	e     *sim.Engine
	hosts int
	times []sim.Time
}

func (c *countTarget) NumHosts() int { return c.hosts }
func (c *countTarget) InjectMessage(src, dst, size int) {
	c.times = append(c.times, c.e.Now())
}

// TestPacedWindow drives a ramp-shaped source on a bare engine and
// checks the staircase: injections stay inside the window, and the
// ramp's quiet head (min_load 0) injects nothing while the loud tail
// does.
func TestPacedWindow(t *testing.T) {
	src, err := NewSource(Traffic{
		Workload: "uniform",
		Load:     0.4,
		Shape:    &Shape{Kind: ShapeRamp, Steps: 4},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	tgt := &countTarget{e: e, hosts: 16}
	const from, until = 0, 400 * sim.Microsecond
	src.Run(e, tgt, from, until)
	e.Run()
	if len(tgt.times) == 0 {
		t.Fatal("ramp injected nothing")
	}
	half := sim.Time(until / 2)
	var head, tail int
	for _, at := range tgt.times {
		if at >= until {
			t.Fatalf("injection at %v, after the window end %v", at, until)
		}
		if at < half {
			head++
		} else {
			tail++
		}
	}
	// Ramp from 0 to 0.4: the second half offers 3x the first half's
	// mean load. Allow slack for the staircase and messaging noise.
	if tail <= head {
		t.Errorf("ramp not ramping: %d injections in the head, %d in the tail", head, tail)
	}

	// A flat source with the same mean behaves like the plain workload:
	// same spec minus shape at slice-0 seed equals the steady stream.
	flat, err := NewSource(Traffic{Workload: "uniform", Load: 0.4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.New()
	tgt2 := &countTarget{e: e2, hosts: 16}
	flat.Run(e2, tgt2, from, until)
	e2.Run()
	if len(tgt2.times) == 0 {
		t.Fatal("flat source injected nothing")
	}
}

// TestSourceParityWithConstructors guards the makers table: every kind
// listed by Kinds builds, runs on a bare engine, and injects at least
// one message — so a scenario phase can offer any advertised kind.
func TestSourceParityWithConstructors(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			src, err := NewSource(Traffic{Workload: kind}, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := sim.New()
			tgt := &countTarget{e: e, hosts: 32}
			src.Run(e, tgt, 0, 200*sim.Microsecond)
			e.Run()
			if len(tgt.times) == 0 {
				t.Errorf("%s injected nothing in 200us", kind)
			}
		})
	}
}
