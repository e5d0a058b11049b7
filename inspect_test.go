package epnet

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRunAttribution(t *testing.T) {
	cfg := fastCfg()
	cfg.Attribution = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attribution) != res.Channels {
		t.Fatalf("attribution entries = %d, want one per channel (%d)",
			len(res.Attribution), res.Channels)
	}
	// Per-channel energies are charged under the same profile and part
	// model as the aggregate, so they sum exactly to EnergyJoules.
	var sum float64
	window := cfg.Duration.Seconds()
	for _, la := range res.Attribution {
		sum += la.EnergyJoules
		if la.Utilization < 0 || la.Utilization > 1 {
			t.Errorf("%s: utilization %v out of range", la.Link, la.Utilization)
		}
		if la.RelPower <= 0 || la.RelPower > 1 {
			t.Errorf("%s: relative power %v out of range", la.Link, la.RelPower)
		}
		var at float64
		for _, s := range la.TimeAtRate {
			at += s
		}
		at += la.OffSeconds
		if math.Abs(at-window) > 1e-12 {
			t.Errorf("%s: time at rates %v s + off %v s != window %v s",
				la.Link, at-la.OffSeconds, la.OffSeconds, window)
		}
	}
	if math.Abs(sum-res.EnergyJoules) > 1e-9*res.EnergyJoules {
		t.Errorf("sum of per-channel energy %v J != Result.EnergyJoules %v J",
			sum, res.EnergyJoules)
	}

	// Off by default: no per-channel work, no entries.
	cfg.Attribution = false
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Attribution) != 0 {
		t.Errorf("attribution populated without opting in: %d entries", len(plain.Attribution))
	}

	// Deterministic: same seed, same breakdown.
	cfg.Attribution = true
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Attribution, again.Attribution) {
		t.Error("attribution differs between identical seeded runs")
	}
}

// readCSV parses a sampled metrics CSV into its header and rows.
func readCSV(t *testing.T, path string) (header []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	header = strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row width %d != header width %d", len(cells), len(header))
		}
		rows = append(rows, cells)
	}
	return header, rows
}

// TestFaultTelemetryReconciles runs a scripted fault schedule with the
// sampler on and checks the fault.* series against Result: the final
// row matches the run's fault counters, an in-outage row shows
// links_down, and the per-link drop attribution is consistent with the
// total drop count.
func TestFaultTelemetryReconciles(t *testing.T) {
	cfg := fastCfg()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.csv")
	cfg.Faults = "150us fail-link s0p4; 200us fail-switch 3;" +
		" 300us repair-switch 3; 400us repair-link s0p4"
	cfg.Attribution = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedPackets == 0 {
		t.Fatal("schedule dropped nothing; reconciliation is vacuous")
	}

	header, rows := readCSV(t, cfg.MetricsOut)
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header", name)
		return -1
	}
	last := rows[len(rows)-1]
	finalWant := map[string]int64{
		"fault.link_failures":   res.Faults.LinkFailures,
		"fault.link_repairs":    res.Faults.LinkRepairs,
		"fault.switch_failures": res.Faults.SwitchFailures,
		"fault.switch_repairs":  res.Faults.SwitchRepairs,
		"fault.links_down":      0, // everything repaired by 400us
		"net.dropped_pkts":      res.DroppedPackets,
	}
	for name, want := range finalWant {
		got, err := strconv.ParseFloat(last[col(name)], 64)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != want {
			t.Errorf("final %s = %v, want %d", name, got, want)
		}
	}
	// Some mid-run sample lands inside an outage window.
	down := col("fault.links_down")
	maxDown := 0.0
	for _, row := range rows {
		if v, _ := strconv.ParseFloat(row[down], 64); v > maxDown {
			maxDown = v
		}
	}
	if maxDown < 1 {
		t.Errorf("no sampled row saw a link down (max %v); outage spans invisible", maxDown)
	}

	// Per-link attributed drops never exceed the total, and the crash
	// dropped at least some packets with channel context.
	var attributed int64
	for _, la := range res.Attribution {
		attributed += la.Drops
	}
	if attributed <= 0 || attributed > res.DroppedPackets {
		t.Errorf("attributed drops = %d of %d total", attributed, res.DroppedPackets)
	}
}

func TestInspectorEndpoints(t *testing.T) {
	insp, addr, err := StartInspector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Nothing published yet: scrape and snapshot are unavailable, the
	// index and pprof work regardless.
	if code, _ := get("/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics before any sample = %d, want 503", code)
	}
	if code, _ := get("/snapshot"); code != http.StatusServiceUnavailable {
		t.Errorf("/snapshot before any sample = %d, want 503", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") ||
		!strings.Contains(body, "/flows") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}

	cfg := fastCfg()
	cfg.Inspector = insp
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	code, scrape := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	for _, want := range []string{
		"# TYPE net_delivered_pkts gauge",
		`link_rate_gbps{link="`,
		"net_latency_us_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape[:min(len(scrape), 600)])
		}
	}

	code, snap := get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot = %d, want 200", code)
	}
	var doc struct {
		TUs   float64 `json:"t_us"`
		Power struct {
			Measured float64 `json:"measured"`
			Ideal    float64 `json:"ideal"`
		} `json:"power"`
		Links []struct {
			Link     string  `json:"link"`
			RateGbps float64 `json:"rate_gbps"`
			State    string  `json:"state"`
		} `json:"links"`
		Switches []struct {
			ID int `json:"sw"`
		} `json:"switches"`
		Outages []any `json:"outages"`
	}
	if err := json.Unmarshal([]byte(snap), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, snap)
	}
	// The final sample lands at the horizon: warmup + duration.
	if want := (cfg.Warmup + cfg.Duration).Seconds() * 1e6; doc.TUs != want {
		t.Errorf("snapshot t_us = %v, want %v", doc.TUs, want)
	}
	if len(doc.Links) == 0 || len(doc.Switches) == 0 {
		t.Fatalf("snapshot has %d links, %d switches", len(doc.Links), len(doc.Switches))
	}
	if doc.Power.Measured <= 0 || doc.Power.Measured > 1 {
		t.Errorf("snapshot measured power = %v", doc.Power.Measured)
	}
	for _, l := range doc.Links {
		if l.Link == "" || l.RateGbps < 0 || l.State == "" {
			t.Errorf("malformed snapshot link %+v", l)
		}
	}
	if doc.Outages == nil {
		t.Error("outages should render as an empty array, not null")
	}

	// /flows publishes only when flow tracing is on: the plain run above
	// leaves it unavailable with a hint, a traced run fills it.
	if code, body := get("/flows"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "flow trace") {
		t.Errorf("/flows without tracing = %d %q, want 503 + hint", code, body)
	}
	cfg.FlowTrace = true
	cfg.FlowSample = 1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	code, flows := get("/flows")
	if code != http.StatusOK {
		t.Fatalf("/flows = %d, want 200", code)
	}
	var fdoc FlowTraceReport
	if err := json.Unmarshal([]byte(flows), &fdoc); err != nil {
		t.Fatalf("/flows is not valid JSON: %v\n%s", err, flows)
	}
	if fdoc.Started == 0 || len(fdoc.Classes) == 0 {
		t.Errorf("live flow doc traced nothing: started=%d classes=%d",
			fdoc.Started, len(fdoc.Classes))
	}
}

// TestInspectorPublishDeterministic: the final published scrape and
// snapshot are byte-identical across repeated seeded runs — the
// documents are pure functions of simulation state.
func TestInspectorPublishDeterministic(t *testing.T) {
	final := func() ([]byte, []byte) {
		insp := NewInspector()
		cfg := fastCfg()
		cfg.Inspector = insp
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return insp.PrometheusText(), insp.SnapshotJSON()
	}
	prom1, snap1 := final()
	prom2, snap2 := final()
	if !bytes.Equal(prom1, prom2) {
		t.Error("final Prometheus scrape differs between identical runs")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("final snapshot differs between identical runs")
	}
	if len(prom1) == 0 || len(snap1) == 0 {
		t.Error("nothing published")
	}
}

func TestRunWritesHeatmapAndHistogram(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg()
	cfg.HeatmapOut = filepath.Join(dir, "heatmap.csv")
	cfg.HistOut = filepath.Join(dir, "hist.csv")
	cfg.SampleInterval = 50 * time.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	header, rows := readCSV(t, cfg.HeatmapOut)
	if header[0] != "link" {
		t.Fatalf("heatmap header starts %q", header[0])
	}
	// Columns at 50us..600us; one row per inter-switch channel (a
	// 4-ary 2-flat has 4 switches x 3 peer ports).
	if wantCols := 1 + 12; len(header) != wantCols {
		t.Errorf("heatmap columns = %d, want %d", len(header), wantCols)
	}
	if want := res.Switches * 3; len(rows) != want {
		t.Errorf("heatmap rows = %d, want %d inter-switch channels", len(rows), want)
	}
	var nonzero bool
	for _, row := range rows {
		if !strings.HasPrefix(row[0], "s") {
			t.Errorf("heatmap row label %q is not a link id", row[0])
		}
		for _, cell := range row[1:] {
			u, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if u < 0 || u > 1 {
				t.Errorf("heatmap cell %v out of [0,1]", u)
			}
			if u > 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Error("heatmap is all zeros; no utilization was recorded")
	}

	hheader, hrows := readCSV(t, cfg.HistOut)
	if strings.Join(hheader, ",") != "le,count,cum_count,cum_fraction" {
		t.Fatalf("histogram header = %v", hheader)
	}
	if want := len(utilBuckets) + 1; len(hrows) != want {
		t.Errorf("histogram rows = %d, want %d buckets", len(hrows), want)
	}
	// Total observations = every heatmap cell.
	lastRow := hrows[len(hrows)-1]
	if cum, _ := strconv.Atoi(lastRow[2]); cum != len(rows)*(len(header)-1) {
		t.Errorf("histogram total %s != heatmap cells %d", lastRow[2], len(rows)*(len(header)-1))
	}
}

// TestGridHeatmapDeterministic: heatmap and histogram files from a
// parallel grid are byte-identical to a serial one, like the metrics
// series.
func TestGridHeatmapDeterministic(t *testing.T) {
	dir := t.TempDir()
	mkCfgs := func(base string) []Config {
		var cfgs []Config
		for _, policy := range []PolicyKind{PolicyHalveDouble, PolicyMinMax} {
			cfg := fastCfg()
			cfg.Policy = policy
			cfg.HeatmapOut = filepath.Join(dir, base+"-heat.csv")
			cfg.HistOut = filepath.Join(dir, base+"-hist.csv")
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
		for _, pair := range [][2]string{
			{serial[i].HeatmapOut, par[i].HeatmapOut},
			{serial[i].HistOut, par[i].HistOut},
		} {
			a, err := os.ReadFile(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("run %d: parallel %s differs from serial %s", i, pair[1], pair[0])
			}
		}
	}
}

// TestRunReportsTelemetryWriteErrors: a telemetry sink that fails to
// write (here /dev/full's ENOSPC) surfaces as an error from Run
// instead of silently truncating the output.
func TestRunReportsTelemetryWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	for _, field := range []string{"trace", "metrics", "heatmap"} {
		t.Run(field, func(t *testing.T) {
			cfg := fastCfg()
			switch field {
			case "trace":
				cfg.TraceOut = "/dev/full"
			case "metrics":
				cfg.MetricsOut = "/dev/full"
			case "heatmap":
				cfg.HeatmapOut = "/dev/full"
			}
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s output to /dev/full succeeded; write failure swallowed", field)
			}
		})
	}
}
