package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	res, ok := parseLine("BenchmarkNetworkThroughput-8   860   1394 ns/op   117.45 MB/s   0 B/op   0 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if res.Name != "BenchmarkNetworkThroughput-8" || res.Iterations != 860 {
		t.Errorf("name/iters = %q/%d", res.Name, res.Iterations)
	}
	if res.NsPerOp != 1394 || res.MBPerSec != 117.45 {
		t.Errorf("ns/op=%v MB/s=%v", res.NsPerOp, res.MBPerSec)
	}
	if res.BytesPerOp != 0 || res.AllocsPerOp != 0 {
		t.Errorf("B/op=%d allocs/op=%d", res.BytesPerOp, res.AllocsPerOp)
	}
	if res.Procs != 8 {
		t.Errorf("procs = %d, want 8 from the -8 suffix", res.Procs)
	}

	for _, line := range []string{
		"goos: linux",
		"pkg: epnet/internal/fabric",
		"PASS",
		"ok  	epnet/internal/fabric	12.3s",
		"BenchmarkBroken notanumber ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("non-benchmark line parsed: %q", line)
		}
	}

	// A minimal line without -benchmem extras still parses.
	res, ok = parseLine("BenchmarkEngine 1000000 52.1 ns/op")
	if !ok || res.NsPerOp != 52.1 || res.Iterations != 1000000 || res.Procs != 1 {
		t.Errorf("minimal line: ok=%v res=%+v", ok, res)
	}

	// Engine self-profile metrics from BenchmarkShardedThroughput.
	res, ok = parseLine("BenchmarkShardedThroughput/shards=4-8 12 90000 ns/op 33.1 barrier% 4 cpus 88.7 weff%")
	if !ok || res.BarrierPct != 33.1 || res.WindowEff != 88.7 || res.Cpus != 4 {
		t.Errorf("profile metrics: ok=%v res=%+v", ok, res)
	}

	// Construction-cost metrics from BenchmarkBuildNetwork.
	res, ok = parseLine("BenchmarkBuildNetwork/fbfly-32k 3 72672102 ns/op 2345 B/host 2218 ns/host")
	if !ok || res.BPerHost != 2345 || res.NsPerHost != 2218 {
		t.Errorf("build metrics: ok=%v res=%+v", ok, res)
	}
}

// TestBuildMemory exercises the construction-cost section: growth
// beyond 25% bytes/host flagged, drift within it not, new benchmarks
// reported "(new)", and no section when nothing reported the metrics.
func TestBuildMemory(t *testing.T) {
	base := map[string]Result{
		"BenchmarkBuildNetwork/fbfly-3k":  {Name: "BenchmarkBuildNetwork/fbfly-3k", BPerHost: 1700, NsPerHost: 1200},
		"BenchmarkBuildNetwork/fbfly-32k": {Name: "BenchmarkBuildNetwork/fbfly-32k", BPerHost: 2300, NsPerHost: 2200},
	}
	current := []Result{
		{Name: "BenchmarkBuildNetwork/fbfly-3k", BPerHost: 1800, NsPerHost: 1300},
		{Name: "BenchmarkBuildNetwork/fbfly-32k", BPerHost: 4000, NsPerHost: 2300},
		{Name: "BenchmarkBuildNetwork/clos3-100k", BPerHost: 2500, NsPerHost: 3600},
		{Name: "BenchmarkNetworkThroughput-4", NsPerOp: 100}, // no build metrics
	}
	var sb strings.Builder
	buildMemory(&sb, current, base)
	out := sb.String()
	if !strings.Contains(out, "build memory") {
		t.Fatalf("missing build-memory section:\n%s", out)
	}
	if got := strings.Count(out, "MEMORY"); got != 1 {
		t.Errorf("want exactly one MEMORY flag (fbfly-32k grew 74%%), got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "(new)") {
		t.Errorf("benchmark absent from baseline should read (new):\n%s", out)
	}
	if strings.Contains(out, "BenchmarkNetworkThroughput-4") {
		t.Errorf("benchmark without build metrics listed:\n%s", out)
	}

	sb.Reset()
	buildMemory(&sb, []Result{{Name: "BenchmarkX", NsPerOp: 5}}, nil)
	if sb.Len() != 0 {
		t.Errorf("section printed with no build metrics:\n%s", sb.String())
	}
}

// TestCompare exercises the baseline diff report: stable results, a
// regression beyond threshold, an improvement, an allocation increase,
// and benchmarks present on only one side.
func TestCompare(t *testing.T) {
	base := map[string]Result{
		"BenchmarkStable-8":  {Name: "BenchmarkStable-8", NsPerOp: 100},
		"BenchmarkSlower-8":  {Name: "BenchmarkSlower-8", NsPerOp: 100},
		"BenchmarkFaster-8":  {Name: "BenchmarkFaster-8", NsPerOp: 100},
		"BenchmarkAllocs-8":  {Name: "BenchmarkAllocs-8", NsPerOp: 100},
		"BenchmarkRemoved-8": {Name: "BenchmarkRemoved-8", NsPerOp: 100},
	}
	current := []Result{
		{Name: "BenchmarkStable-8", NsPerOp: 105},
		{Name: "BenchmarkSlower-8", NsPerOp: 125},
		{Name: "BenchmarkFaster-8", NsPerOp: 60},
		{Name: "BenchmarkAllocs-8", NsPerOp: 100, AllocsPerOp: 3},
		{Name: "BenchmarkNew-8", NsPerOp: 42},
	}
	var sb strings.Builder
	regressions := compare(&sb, current, base, 0.10)
	out := sb.String()
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (time + allocs)\n%s", regressions, out)
	}
	for _, want := range []string{
		"REGRESSION", "ALLOCS 0 -> 3", "(new)", "missing from current run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkStable-8 ") && strings.Contains(out, "Stable-8.*REGRESSION") {
		t.Errorf("within-threshold drift flagged:\n%s", out)
	}
}

// TestShardName covers the sub-benchmark name split behind the shard
// scaling report.
func TestShardName(t *testing.T) {
	base, n, ok := shardName("BenchmarkShardedThroughput/shards=4-8")
	if !ok || base != "BenchmarkShardedThroughput" || n != 4 {
		t.Errorf("split = %q/%d/%v", base, n, ok)
	}
	for _, name := range []string{
		"BenchmarkNetworkThroughput-8",
		"BenchmarkX/shards=zero-8",
		"BenchmarkX/shards=0-8",
	} {
		if _, _, ok := shardName(name); ok {
			t.Errorf("%q parsed as a shard sub-benchmark", name)
		}
	}
}

// TestShardScaling exercises the efficiency report: perfect scaling at
// 2 shards, poor scaling at 4 flagged LOW because the machine had the
// cores, and no flag at 8 where it did not.
func TestShardScaling(t *testing.T) {
	current := []Result{
		{Name: "BenchmarkShardedThroughput/shards=1-4", MBPerSec: 100, Cpus: 4},
		{Name: "BenchmarkShardedThroughput/shards=2-4", MBPerSec: 200, Cpus: 4},
		{Name: "BenchmarkShardedThroughput/shards=4-4", MBPerSec: 150, Cpus: 4},
		{Name: "BenchmarkShardedThroughput/shards=8-4", MBPerSec: 150, Cpus: 4},
		{Name: "BenchmarkNetworkThroughput-4", MBPerSec: 500},
	}
	var sb strings.Builder
	shardScaling(&sb, current)
	out := sb.String()
	if !strings.Contains(out, "shard scaling: BenchmarkShardedThroughput") {
		t.Fatalf("missing scaling section:\n%s", out)
	}
	if strings.Count(out, "LOW") != 1 {
		t.Errorf("want exactly one LOW flag (shards=4):\n%s", out)
	}
	for _, want := range []string{"2.00x", "100%", "38%", "recorded with 4 cpus"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Without a serial anchor there is nothing to normalize against.
	sb.Reset()
	shardScaling(&sb, current[1:3])
	if sb.Len() != 0 {
		t.Errorf("report without shards=1 anchor should be empty:\n%s", sb.String())
	}
}

// TestEngineProfile exercises the engine-profile section: growth beyond
// 10 percentage points of barrier overhead flagged, drift within it
// not, baselines without the metrics reported "(new)", and no section
// at all when nothing reported the metrics.
func TestEngineProfile(t *testing.T) {
	base := map[string]Result{
		"BenchmarkShardedThroughput/shards=2-4": {Name: "BenchmarkShardedThroughput/shards=2-4", BarrierPct: 20, WindowEff: 90},
		"BenchmarkShardedThroughput/shards=4-4": {Name: "BenchmarkShardedThroughput/shards=4-4", BarrierPct: 25, WindowEff: 85},
		"BenchmarkShardedThroughput/shards=8-4": {Name: "BenchmarkShardedThroughput/shards=8-4"}, // pre-profile baseline
	}
	current := []Result{
		{Name: "BenchmarkShardedThroughput/shards=2-4", BarrierPct: 25, WindowEff: 91},
		{Name: "BenchmarkShardedThroughput/shards=4-4", BarrierPct: 45, WindowEff: 70},
		{Name: "BenchmarkShardedThroughput/shards=8-4", BarrierPct: 60, WindowEff: 50},
		{Name: "BenchmarkNetworkThroughput-4", NsPerOp: 100}, // no profile metrics
	}
	var sb strings.Builder
	engineProfile(&sb, current, base)
	out := sb.String()
	if !strings.Contains(out, "engine profile") {
		t.Fatalf("missing profile section:\n%s", out)
	}
	if got := strings.Count(out, "BARRIER"); got != 1 {
		t.Errorf("want exactly one BARRIER flag (shards=4 grew 20pp), got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "BARRIER +20.0pp") {
		t.Errorf("flag should carry the growth:\n%s", out)
	}
	if !strings.Contains(out, "(new)") {
		t.Errorf("pre-profile baseline should read (new):\n%s", out)
	}
	if strings.Contains(out, "BenchmarkNetworkThroughput-4") {
		t.Errorf("benchmark without profile metrics listed:\n%s", out)
	}

	// No metrics anywhere: no section header.
	sb.Reset()
	engineProfile(&sb, []Result{{Name: "BenchmarkX", NsPerOp: 5}}, nil)
	if sb.Len() != 0 {
		t.Errorf("section printed with no profile metrics:\n%s", sb.String())
	}
}

// TestReadBaselineRoundTrip writes a JSON Lines stream and reads it
// back through the baseline loader.
func TestReadBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	data := `{"name":"BenchmarkA-8","iterations":10,"ns_per_op":123,"bytes_per_op":0,"allocs_per_op":0}
{"name":"BenchmarkB-8","iterations":20,"ns_per_op":456,"bytes_per_op":8,"allocs_per_op":1}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || base["BenchmarkB-8"].NsPerOp != 456 || base["BenchmarkB-8"].AllocsPerOp != 1 {
		t.Fatalf("baseline = %+v", base)
	}
}

// TestCompareAcrossCPUCounts: a baseline recorded on one CPU (names
// without the -GOMAXPROCS suffix) matches a run on a multi-core machine
// (names with it) in every section, instead of reading as all-new and
// all-missing with a vacuous "no regressions".
func TestCompareAcrossCPUCounts(t *testing.T) {
	base := map[string]Result{
		"BenchmarkSlower":                     {Name: "BenchmarkSlower", NsPerOp: 100},
		"BenchmarkShardedThroughput/shards=2": {Name: "BenchmarkShardedThroughput/shards=2", BarrierPct: 10, WindowEff: 90},
		"BenchmarkBuildNetwork/fbfly-32k":     {Name: "BenchmarkBuildNetwork/fbfly-32k", BPerHost: 2000},
	}
	current := []Result{
		{Name: "BenchmarkSlower-8", NsPerOp: 150},
		{Name: "BenchmarkShardedThroughput/shards=2-8", BarrierPct: 40, WindowEff: 60},
		{Name: "BenchmarkBuildNetwork/fbfly-32k-8", BPerHost: 4000},
	}
	var sb strings.Builder
	if n := compare(&sb, current, base, 0.10); n != 1 {
		t.Errorf("regressions = %d, want 1 (BenchmarkSlower +50%%):\n%s", n, sb.String())
	}
	engineProfile(&sb, current, base)
	buildMemory(&sb, current, base)
	out := sb.String()
	for _, bad := range []string{"(new)", "missing from current run"} {
		if strings.Contains(out, bad) {
			t.Errorf("suffix mismatch reported as %q:\n%s", bad, out)
		}
	}
	for _, want := range []string{"REGRESSION", "BARRIER +30.0pp", "MEMORY +100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCompareNamesCPUCounts: the report opens with one line naming both
// CPU counts when the baseline's differs from the run's (a baseline
// without procs reads as unknown), and says nothing when they match.
func TestCompareNamesCPUCounts(t *testing.T) {
	for _, tc := range []struct {
		base, cur int
		want      string
	}{
		{1, 8, "CPU counts differ: baseline GOMAXPROCS 1, this run 8\n"},
		{0, 2, "CPU counts differ: baseline GOMAXPROCS unknown, this run 2\n"},
		{4, 4, ""},
		{0, 0, ""},
	} {
		base := map[string]Result{"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100, Procs: tc.base}}
		current := []Result{{Name: "BenchmarkA", NsPerOp: 100, Procs: tc.cur}}
		var sb strings.Builder
		compare(&sb, current, base, 0.10)
		out := sb.String()
		if got := strings.Count(out, "CPU counts differ"); got != strings.Count(tc.want, "CPU counts differ") ||
			!strings.HasPrefix(out, tc.want) {
			t.Errorf("base %d, run %d: report starts\n%s\nwant first line %q", tc.base, tc.cur, out, tc.want)
		}
	}
}
