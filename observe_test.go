package epnet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// observeConfig is a small, fast run with enough epochs for the
// controller to retune links several times.
func observeConfig() Config {
	cfg := DefaultConfig()
	cfg.K, cfg.N, cfg.C = 4, 2, 4
	cfg.Warmup = 100 * time.Microsecond
	cfg.Duration = 400 * time.Microsecond
	return cfg
}

func TestRunWritesMetricsCSV(t *testing.T) {
	cfg := observeConfig()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.csv")
	cfg.SampleInterval = 50 * time.Microsecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// Samples at 0, 50us, ..., 500us plus the header.
	if want := 1 + 11; len(lines) != want {
		t.Fatalf("csv lines = %d, want %d", len(lines), want)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "t_us" {
		t.Fatalf("header starts %q, want t_us", header[0])
	}
	rateCol := -1
	for i, name := range header {
		if strings.HasPrefix(name, "link.rate_gbps{") {
			rateCol = i
			break
		}
	}
	if rateCol == -1 {
		t.Fatalf("no rate_gbps column in header %v", header)
	}
	// The halve/double controller must visibly change the sampled link
	// rate over the run — the series is not a flat line.
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row width %d != header width %d", len(cells), len(header))
		}
		seen[cells[rateCol]] = true
	}
	if len(seen) < 2 {
		t.Errorf("rate series %s is flat (%v); want per-epoch changes", header[rateCol], seen)
	}
}

func TestRunWritesMetricsJSONL(t *testing.T) {
	cfg := observeConfig()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.jsonl")
	cfg.SampleInterval = 100 * time.Microsecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if want := 6; len(lines) != want { // 0..500us every 100us
		t.Fatalf("jsonl lines = %d, want %d", len(lines), want)
	}
	for _, line := range lines {
		var row struct {
			TUs     float64            `json:"t_us"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSONL row %q: %v", line, err)
		}
		if len(row.Metrics) == 0 {
			t.Fatalf("row at t=%v has no metrics", row.TUs)
		}
	}
}

func TestRunWritesChromeTrace(t *testing.T) {
	cfg := observeConfig()
	cfg.TraceOut = filepath.Join(t.TempDir(), "trace.json")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		counts[ph]++
	}
	if counts["b"] == 0 || counts["b"] != counts["e"] {
		t.Errorf("packet spans unbalanced: %d begins vs %d ends", counts["b"], counts["e"])
	}
	if counts["X"] == 0 {
		t.Error("no link retune spans in trace")
	}
	if counts["M"] == 0 {
		t.Error("no metadata events naming the tracks")
	}
}

func TestTelemetryOptsApply(t *testing.T) {
	opts := &TelemetryOpts{}
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i].MetricsOut, cfgs[i].TraceOut, cfgs[i].ProfileOut = "m.csv", "t.json", "p.json"
	}
	opts.Apply(cfgs[:2])
	opts.Apply(cfgs[2:]) // sequence continues across grids
	want := []string{"m.000.csv", "m.001.csv", "m.002.csv"}
	for i, cfg := range cfgs {
		if cfg.MetricsOut != want[i] {
			t.Errorf("cfg %d MetricsOut = %q, want %q", i, cfg.MetricsOut, want[i])
		}
		if wantTrace := "t.00" + strconv.Itoa(i) + ".json"; cfg.TraceOut != wantTrace {
			t.Errorf("cfg %d TraceOut = %q, want %q", i, cfg.TraceOut, wantTrace)
		}
		if wantProf := "p.00" + strconv.Itoa(i) + ".json"; cfg.ProfileOut != wantProf {
			t.Errorf("cfg %d ProfileOut = %q, want %q", i, cfg.ProfileOut, wantProf)
		}
	}
	// Every output path is numbered; a nil sequencer and unset paths
	// leave configurations untouched.
	all := make([]Config, 1)
	for _, p := range all[0].OutputPaths() {
		*p = "x.out"
	}
	(&TelemetryOpts{}).Apply(all)
	for i, p := range all[0].OutputPaths() {
		if *p != "x.000.out" {
			t.Errorf("output path %d = %q, want it numbered", i, *p)
		}
	}
	var off *TelemetryOpts
	plain := make([]Config, 1)
	plain[0].MetricsOut = "m.csv"
	off.Apply(plain)
	if plain[0].MetricsOut != "m.csv" {
		t.Errorf("nil sequencer numbered a path: %q", plain[0].MetricsOut)
	}
	(&TelemetryOpts{}).Apply(plain)
	if plain[0].TraceOut != "" {
		t.Errorf("unset path got a number: %q", plain[0].TraceOut)
	}
}

// Telemetry files from a parallel grid are byte-identical to a serial
// one: paths are assigned before the fan-out and each run owns its
// files.
func TestGridTelemetryDeterministic(t *testing.T) {
	dir := t.TempDir()
	mkCfgs := func(base string) []Config {
		var cfgs []Config
		for _, policy := range []PolicyKind{PolicyHalveDouble, PolicyMinMax} {
			cfg := observeConfig()
			cfg.Policy = policy
			cfg.MetricsOut = filepath.Join(dir, base+".csv")
			cfg.SampleInterval = 100 * time.Microsecond
			cfgs = append(cfgs, cfg)
		}
		(&TelemetryOpts{}).Apply(cfgs)
		return cfgs
	}
	serial := mkCfgs("serial")
	if _, err := RunGrid(serial, 1); err != nil {
		t.Fatal(err)
	}
	par := mkCfgs("par")
	if _, err := RunGrid(par, 4); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, err := os.ReadFile(serial[i].MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(par[i].MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("run %d: parallel telemetry differs from serial", i)
		}
	}
}
