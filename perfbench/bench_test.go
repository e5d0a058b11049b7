package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"epnet"
)

const repoRoot = ".."

func TestGoldenRowsPassAndCorruptedRowFails(t *testing.T) {
	want, err := goldenFig9b(filepath.Join(repoRoot, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(fig9bWorkloads)*len(fig9bReactivations) {
		t.Fatalf("golden Figure 9b table has %d rows, want %d", len(want), len(fig9bWorkloads)*len(fig9bReactivations))
	}
	r := &record{}
	checkGolden(r, repoRoot, want)
	if len(r.Failures) != 0 {
		t.Fatalf("golden rows against themselves: %v", r.Failures)
	}

	// A golden file with one row changed must fail the same rows.
	data, err := os.ReadFile(filepath.Join(repoRoot, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), want[5], strings.Replace(want[5], "%", "0%", 1), 1)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, goldenPath), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	r = &record{}
	checkGolden(r, dir, want)
	if len(r.Failures) != 1 || !strings.Contains(r.Failures[0], "row 5") {
		t.Fatalf("corrupted golden row: failures %v, want one naming row 5", r.Failures)
	}
}

func TestConservationViolationFails(t *testing.T) {
	ok := epnet.Result{InjectedPackets: 10, DeliveredPackets: 9}
	r := &record{}
	checkResult(r, ok, false)
	if len(r.Failures) != 0 {
		t.Fatalf("valid result failed: %v", r.Failures)
	}
	for name, res := range map[string]epnet.Result{
		"conservation": {InjectedPackets: 10, DeliveredPackets: 9, DroppedPackets: 2},
		"fault-free":   {InjectedPackets: 10, DeliveredPackets: 8, DroppedPackets: 1},
		"nothing":      {InjectedPackets: 10},
	} {
		r := &record{}
		checkResult(r, res, false)
		if len(r.Failures) == 0 {
			t.Errorf("%s violation passed", name)
		}
	}
	r = &record{}
	checkResult(r, epnet.Result{InjectedPackets: 10, DeliveredPackets: 8, DroppedPackets: 1}, true)
	if len(r.Failures) != 0 {
		t.Fatalf("drops on a faulted workload failed: %v", r.Failures)
	}
}

func TestFidelityMismatchFails(t *testing.T) {
	ref := []outcome{{Injected: 100, Delivered: 90, Reconfigs: 7, RelPowerMeasured: 0.5}}
	if errs := fidelityErrs(ref, ref); len(errs) != 0 {
		t.Fatalf("identical outcomes: %v", errs)
	}
	for _, bad := range []outcome{
		{Injected: 101, Delivered: 90, Reconfigs: 7, RelPowerMeasured: 0.5},
		{Injected: 100, Delivered: 89, Reconfigs: 7, RelPowerMeasured: 0.5},
		{Injected: 100, Delivered: 90, Reconfigs: 8, RelPowerMeasured: 0.5},
		{Injected: 100, Delivered: 90, Reconfigs: 7, RelPowerMeasured: 0.5000001},
	} {
		if errs := fidelityErrs(ref, []outcome{bad}); len(errs) != 1 {
			t.Errorf("mismatch %+v: %d errors, want 1", bad, len(errs))
		}
	}
	if errs := fidelityErrs(ref, nil); len(errs) != 1 {
		t.Errorf("missing traced run: %d errors, want 1", len(errs))
	}
}

func TestFlowPacketSumsChecked(t *testing.T) {
	good := epnet.FlowPacket{LatencyPs: 30,
		Breakdown: epnet.FlowBreakdown{QueuePs: 10, WirePs: 20},
		Hops: []epnet.FlowPacketHop{
			{Breakdown: epnet.FlowBreakdown{QueuePs: 10}},
			{Breakdown: epnet.FlowBreakdown{WirePs: 20}},
		}}
	r := &record{}
	checkFlowPacket(r, &good)
	if len(r.Failures) != 0 {
		t.Fatalf("consistent packet failed: %v", r.Failures)
	}
	badTotal := good
	badTotal.LatencyPs = 31
	badHops := good
	badHops.Hops = good.Hops[:1]
	for name, p := range map[string]epnet.FlowPacket{"total": badTotal, "hops": badHops} {
		r := &record{}
		checkFlowPacket(r, &p)
		if len(r.Failures) == 0 {
			t.Errorf("%s mismatch passed", name)
		}
	}
}

// TestComposedMatchesRun pins the composer to epnet.Run on a
// small fabric with several minimal paths per packet, serial and
// sharded, under both link policies.
func TestComposedMatchesRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, policy := range []epnet.PolicyKind{epnet.PolicyHalveDouble, epnet.PolicyBaseline} {
			cfg := epnet.DefaultConfig()
			cfg.K, cfg.N, cfg.C = 4, 3, 4
			cfg.Workload = epnet.WorkloadUniform
			cfg.Warmup = 50 * time.Microsecond
			cfg.Duration = 200 * time.Microsecond
			cfg.Shards = shards
			cfg.Policy = policy
			res, err := epnet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := compose(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveredPackets == 0 || (policy == epnet.PolicyHalveDouble && res.Reconfigurations == 0) {
				t.Fatalf("shards=%d %s: run too small to compare (delivered %d, reconfigs %d)",
					shards, policy, res.DeliveredPackets, res.Reconfigurations)
			}
			if errs := fidelityErrs([]outcome{outcomeOf(res, 0)}, []outcome{c.Out}); len(errs) != 0 {
				t.Errorf("shards=%d %s: %v", shards, policy, errs)
			}
			if c.Out.MeanLatencyNs != res.MeanLatency.Nanoseconds() || c.Out.RelPowerIdeal != res.RelPowerIdeal {
				t.Errorf("shards=%d %s: composed mean/ideal %d/%v, Run %d/%v", shards, policy,
					c.Out.MeanLatencyNs, c.Out.RelPowerIdeal, res.MeanLatency.Nanoseconds(), res.RelPowerIdeal)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(m metric) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
	}
	for _, m := range perLayer {
		check(m)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, nameRE)
		}
	}

	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, perfbench %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v out of (0, 0.25]", m.Name, got.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != m {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, perfbench %+v", i, b.PerLayer[i], m)
		}
	}
}

func TestReadmeListsWorkloadsAndMetrics(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") {
			t.Errorf("README.md does not list workload %s", w.Name)
		}
	}
	for _, m := range endToEnd {
		if !strings.Contains(doc, "| `"+m.Name+"` |") {
			t.Errorf("README.md does not list end-to-end metric %s", m.Name)
		}
	}
	for _, lm := range perLayer {
		if !strings.Contains(doc, "| `"+lm.Name+"` | "+lm.Unit+" |") {
			t.Errorf("README.md does not map per-layer metric %s (%s)", lm.Name, lm.Unit)
		}
	}
}
