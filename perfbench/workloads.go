package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"epnet"
	"epnet/internal/parallel"
	"epnet/internal/telemetry"
)

// workload is one named input set. Its Why is the line BENCHMARK.json
// carries.
type workload struct {
	Name string
	Why  string
}

var workloads = []workload{
	{"paper-search", "paper eval config (15-ary 3-flat, 3,375 hosts, Search, 2 shards): engine-bound; event heap, packet path and control plane show here"},
	{"mega-uniform", "8-ary 6-flat (262,144 hosts, 1.67M channels), Uniform 5%, 20us: set-up, finish and memory bound; the engine is a small share"},
	{"harness-fig9b", "Figure9b over RunGrid, 2 workers: 24 small unsharded runs with epochs down to 1us; output checked against the repo's golden table"},
	{"chaos-traced", "embedded chaos scenario at paper scale, 2 shards, flow tracing 1/64 with export: scenario phases, fault injector, hop logs"},
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// workerCount is the harness's RunGrid width and every sharded
// workload's shard count.
const workerCount = 2

func paperSearch(seed int64) epnet.Config {
	c := epnet.PaperConfig()
	c.Shards = workerCount
	c.Seed = seed
	return c
}

func megaUniform(seed int64) epnet.Config {
	c := epnet.DefaultConfig()
	c.K, c.N, c.C = 8, 6, 8
	c.Workload = epnet.WorkloadUniform
	c.Load = 0.05
	c.Warmup = 0
	c.Duration = 20 * time.Microsecond
	c.Shards = workerCount
	c.Seed = seed
	return c
}

func fig9bEval(seed int64) epnet.EvalConfig {
	e := epnet.DefaultEval()
	e.Seed = seed
	e.Parallel = workerCount
	return e
}

// chaosConfig loads the embedded chaos drill onto the paper-scale base.
// flowsOut, when set, makes Run export the flow-trace report there.
func chaosConfig(seed int64, flowsOut string) (epnet.Config, error) {
	base := epnet.PaperConfig()
	base.Shards = workerCount
	base.Seed = seed
	cfg, err := epnet.LoadScenario("chaos", base)
	if err != nil {
		return cfg, err
	}
	cfg.FlowTrace = true
	cfg.FlowsOut = flowsOut
	return cfg, nil
}

// singleConfig returns the Config of a workload that is one Run.
func singleConfig(name string, seed int64) (epnet.Config, bool) {
	switch name {
	case "paper-search":
		return paperSearch(seed), true
	case "mega-uniform":
		return megaUniform(seed), true
	}
	return epnet.Config{}, false
}

// fig9bReactivations and fig9bConfigs rebuild the grid Figure9b runs,
// so the harness's per-run Results (delivered packets, conservation)
// can be read. Every check run compares the rows these produce with
// Figure9b's own.
var fig9bReactivations = []time.Duration{100 * time.Nanosecond, time.Microsecond,
	10 * time.Microsecond, 100 * time.Microsecond}

var fig9bWorkloads = []epnet.WorkloadKind{epnet.WorkloadUniform, epnet.WorkloadAdvert, epnet.WorkloadSearch}

func fig9bConfigs(e epnet.EvalConfig) []epnet.Config {
	var cfgs []epnet.Config
	for _, w := range fig9bWorkloads {
		for _, react := range fig9bReactivations {
			cfg := e.Config
			cfg.Workload = w
			cfg.Policy = epnet.PolicyHalveDouble
			cfg.Reactivation = react
			cfg.Epoch = 10 * react
			if min := 40 * cfg.Epoch; cfg.Duration < min {
				cfg.Duration = min
			}
			base := cfg
			base.Policy = epnet.PolicyBaseline
			cfgs = append(cfgs, base, cfg)
		}
	}
	return cfgs
}

// fig9bRows folds baseline/EP pairs of outcomes into Figure 9b rows.
func fig9bRows(outs []outcome) []epnet.Figure9bRow {
	var rows []epnet.Figure9bRow
	for i, w := range fig9bWorkloads {
		for j, react := range fig9bReactivations {
			pair := 2 * (i*len(fig9bReactivations) + j)
			base, ep := outs[pair], outs[pair+1]
			rows = append(rows, epnet.Figure9bRow{
				Workload:     w,
				Reactivation: react,
				AddedMean:    time.Duration(ep.MeanLatencyNs - base.MeanLatencyNs),
				RelPowerID:   ep.RelPowerIdeal,
			})
		}
	}
	return rows
}

// formatRows renders rows exactly as cmd/experiments prints them.
func formatRows(rows []epnet.Figure9bRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%-9s  %14v  %16v  %11.1f%%",
			epnet.WorkloadLabel(r.Workload), r.Reactivation,
			r.AddedMean.Round(time.Microsecond), r.RelPowerID*100)
	}
	return out
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// resultDigest hashes every simulated Result field. The engine profile
// is host time and the output path names a file, so both are cleared,
// with the switches that asked for them.
func resultDigest(res epnet.Result) string {
	res.Profile = nil
	res.Config.Profile = false
	res.Config.FlowsOut = ""
	return digestOf(res)
}

// simOutcome is a workload's simulated outcome. It is recorded, not
// gated: the model is checked only against the repo's own goldens.
type simOutcome struct {
	RelPowerMeasured  float64  `json:"rel_power_measured"`
	RelPowerIdeal     float64  `json:"rel_power_ideal"`
	P99LatencyUs      float64  `json:"p99_latency_us"`
	DeliveredFraction float64  `json:"delivered_fraction"`
	Reconfigurations  int64    `json:"reconfigurations"`
	Digest            string   `json:"digest"`
	Fig9bRows         []string `json:"fig9b_rows,omitempty"`
}

func simOf(res epnet.Result) *simOutcome {
	return &simOutcome{
		RelPowerMeasured:  res.RelPowerMeasured,
		RelPowerIdeal:     res.RelPowerIdeal,
		P99LatencyUs:      float64(res.P99Latency.Nanoseconds()) / 1e3,
		DeliveredFraction: res.DeliveredFraction,
		Reconfigurations:  res.Reconfigurations,
		Digest:            resultDigest(res),
	}
}

// record is what one child process reports to the parent on its last
// line of standard output.
type record struct {
	Failures []string `json:"failures,omitempty"`
	WallS    float64  `json:"wall_s,omitempty"`
	SetupS   float64  `json:"setup_s,omitempty"`
	// Delivered is the simulated packets delivered by the run (summed
	// over the grid for the harness).
	Delivered int64 `json:"delivered,omitempty"`
	// Digest identifies the simulated output; every run of one
	// workload and seed must repeat it.
	Digest string `json:"digest,omitempty"`
	// Outs are the fidelity fields of each simulation in the run.
	Outs []outcome `json:"outs,omitempty"`
	// Sim is the simulated outcome (run and check children).
	Sim *simOutcome `json:"sim,omitempty"`
	// Layers are the traced child's per-layer values; the parent adds
	// the ones that need the untraced reference.
	Layers map[string]float64 `json:"layers,omitempty"`
	// SetupInRunS is a traced run's set-up inside Run, EngineS a
	// profiled run's engine time; epnet.finish_s subtracts both from
	// Run's wall time.
	SetupInRunS float64 `json:"setup_in_run_s,omitempty"`
	EngineS     float64 `json:"engine_s,omitempty"`
}

func (r *record) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// scratchDir is where runs write their exported files, inside the
// checkout's build directory.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// runChild runs the workload once through its public entry point and
// checks its outputs. With profile, Run also reports its engine time
// (EngineS), which the traced runs subtract to find finish time; the
// harness's Figure9b has no such switch and ignores it.
func runChild(r *record, name string, seed int64, root string, profile bool) error {
	if cfg, ok := singleConfig(name, seed); ok {
		cfg.Profile = profile
		t0 := time.Now()
		res, err := epnet.Run(cfg)
		r.WallS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		r.EngineS = engineSeconds(res)
		checkResult(r, res, false)
		r.Delivered = res.DeliveredPackets
		r.Outs = []outcome{outcomeOf(res, r.WallS)}
		r.Sim = simOf(res)
		r.Digest = r.Sim.Digest
		return nil
	}
	switch name {
	case "harness-fig9b":
		t0 := time.Now()
		rows, err := epnet.Figure9b(fig9bEval(seed))
		r.WallS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		lines := formatRows(rows)
		if seed == 1 {
			checkGolden(r, root, lines)
		}
		r.Digest = digestOf(lines)
		return nil
	case "chaos-traced":
		dir, err := scratchDir(root)
		if err != nil {
			return err
		}
		flows := filepath.Join(dir, "flows.json")
		t0 := time.Now()
		cfg, err := chaosConfig(seed, flows)
		if err != nil {
			return err
		}
		cfg.Profile = profile
		res, err := epnet.Run(cfg)
		r.WallS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		r.EngineS = engineSeconds(res)
		defer os.Remove(flows)
		data, err := os.ReadFile(flows)
		if err != nil {
			return err
		}
		checkResult(r, res, true)
		checkChaos(r, res)
		r.Delivered = res.DeliveredPackets
		r.Outs = []outcome{outcomeOf(res, r.WallS)}
		r.Sim = simOf(res)
		r.Digest = r.Sim.Digest + "/" + digestOf(string(data))
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// checkChild runs the harness grid through epnet.Run, one timed call
// per configuration over the same two workers RunGrid uses, for the
// per-run Results Figure9b does not return. profile is as for runChild.
func checkChild(r *record, seed int64, profile bool) error {
	cfgs := fig9bConfigs(fig9bEval(seed))
	for i := range cfgs {
		cfgs[i].Profile = profile
	}
	t0 := time.Now()
	type run struct {
		res  epnet.Result
		wall float64
	}
	runs, err := parallel.Map(len(cfgs), workerCount, func(i int) (run, error) {
		s := time.Now()
		res, err := epnet.Run(cfgs[i])
		return run{res, time.Since(s).Seconds()}, err
	})
	r.WallS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	sim := &simOutcome{}
	var delivered, dropped int64
	for _, rn := range runs {
		checkResult(r, rn.res, false)
		r.EngineS += engineSeconds(rn.res)
		r.Outs = append(r.Outs, outcomeOf(rn.res, rn.wall))
		delivered += rn.res.DeliveredPackets
		dropped += rn.res.DroppedPackets
		sim.RelPowerMeasured += rn.res.RelPowerMeasured / float64(len(runs))
		sim.RelPowerIdeal += rn.res.RelPowerIdeal / float64(len(runs))
		if p99 := float64(rn.res.P99Latency.Nanoseconds()) / 1e3; p99 > sim.P99LatencyUs {
			sim.P99LatencyUs = p99
		}
		sim.Reconfigurations += rn.res.Reconfigurations
	}
	sim.DeliveredFraction = float64(delivered) / float64(delivered+dropped)
	sim.Fig9bRows = formatRows(fig9bRows(r.Outs))
	sim.Digest = digestOf(sim.Fig9bRows)
	r.Sim = sim
	r.Digest = sim.Digest
	r.Delivered = delivered
	return nil
}

// engineSeconds is the engine's wall time from a profiled Result, 0
// when the run was not profiled.
func engineSeconds(res epnet.Result) float64 {
	if res.Profile == nil {
		return 0
	}
	return res.Profile.Wall.Seconds()
}

// setupChild composes the workload's set-up from the layers' public
// calls and stops before the first simulated event.
func setupChild(r *record, name string, seed int64) error {
	var cfgs []epnet.Config
	var load float64
	switch name {
	case "harness-fig9b":
		cfgs = fig9bConfigs(fig9bEval(seed))
	case "chaos-traced":
		t0 := time.Now()
		cfg, err := chaosConfig(seed, "")
		load = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		cfgs = []epnet.Config{cfg}
	default:
		cfg, _ := singleConfig(name, seed)
		cfgs = []epnet.Config{cfg}
	}
	r.SetupS = load
	for _, cfg := range cfgs {
		c, err := compose(cfg, true)
		if err != nil {
			return err
		}
		r.SetupS += c.Spans.sum(setupSpans)
	}
	return nil
}

// engineStats are the engine-profile fields the per-layer metrics use,
// summable across the harness's runs.
type engineStats struct {
	WallNs, CritNs, BusyNs, CtrlNs int64
	Events, CtrlEvents             uint64
	ExchEvents                     int64
	GrantedPs, UsedPs              int64
}

func statsOf(p *telemetry.EngineProfile) engineStats {
	s := engineStats{WallNs: p.WallNs, CritNs: p.CriticalPathNs, CtrlNs: p.CtrlWallNs,
		CtrlEvents: p.CtrlEvents, Events: p.TotalEvents()}
	s.ExchEvents, _ = p.ExchangeTotals()
	for _, sh := range p.Shards {
		s.BusyNs += sh.BusyWallNs
		s.GrantedPs += sh.GrantedPs
		s.UsedPs += sh.UsedPs
	}
	return s
}

func publicStatsOf(p *epnet.EngineProfile) engineStats {
	s := engineStats{WallNs: p.Wall.Nanoseconds(), CritNs: p.CriticalPath.Nanoseconds(),
		CtrlNs: p.CtrlWall.Nanoseconds(), CtrlEvents: p.CtrlEvents, Events: p.TotalEvents()}
	s.ExchEvents, _ = p.ExchangeTotals()
	for _, sh := range p.Shards {
		s.BusyNs += sh.BusyWall.Nanoseconds()
		s.GrantedPs += sh.GrantedSim.Nanoseconds()
		s.UsedPs += sh.UsedSim.Nanoseconds()
	}
	return s
}

func (s *engineStats) add(o engineStats) {
	s.WallNs += o.WallNs
	s.CritNs += o.CritNs
	s.BusyNs += o.BusyNs
	s.CtrlNs += o.CtrlNs
	s.Events += o.Events
	s.CtrlEvents += o.CtrlEvents
	s.ExchEvents += o.ExchEvents
	s.GrantedPs += o.GrantedPs
	s.UsedPs += o.UsedPs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills the engine-profile metrics.
func (s engineStats) layers(m map[string]float64) {
	m["sim.events"] = float64(s.Events)
	m["sim.ns_per_event"] = ratio(float64(s.BusyNs), float64(s.Events))
	m["fabric.barrier_wait_frac"] = 0
	if s.WallNs > 0 && s.CritNs < s.WallNs {
		m["fabric.barrier_wait_frac"] = 1 - float64(s.CritNs)/float64(s.WallNs)
	}
	m["fabric.exchange_events"] = float64(s.ExchEvents)
	m["fabric.window_eff"] = ratio(float64(s.UsedPs), float64(s.GrantedPs))
	m["core.ctrl_s"] = float64(s.CtrlNs) / 1e9
	m["core.ctrl_events"] = float64(s.CtrlEvents)
}

// tracedChild runs the workload once with per-layer spans. Composed
// workloads run through compose; the chaos drill, whose phase plan and
// chaos scheduling are not public, times the enclosing epnet.Run and
// reads the engine split from its profile.
func tracedChild(r *record, name string, seed int64, root string) error {
	m := map[string]float64{}
	for _, lm := range perLayer {
		m[lm.Name] = 0
	}
	r.Layers = m
	switch name {
	case "harness-fig9b":
		cfgs := fig9bConfigs(fig9bEval(seed))
		t0 := time.Now()
		cs, err := parallel.Map(len(cfgs), workerCount, func(i int) (*composed, error) {
			return compose(cfgs[i], false)
		})
		grid := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		var es engineStats
		var busy, covered float64
		for _, c := range cs {
			addSpans(m, c.Spans)
			es.add(statsOf(c.Profile))
			busy += c.Out.WallS
			covered += c.Spans.sum(allSpans)
			r.Outs = append(r.Outs, c.Out)
			r.SetupInRunS += c.Spans.sum(setupSpans)
			m["core.reconfigs"] += float64(c.Out.Reconfigs)
		}
		es.layers(m)
		m["parallel.grid_s"] = grid
		m["parallel.busy_frac"] = busy / (workerCount * grid)
		m["trace.coverage_frac"] = covered / busy
		m["trace.wall_s"] = grid
		r.Digest = digestOf(formatRows(fig9bRows(r.Outs)))
	case "chaos-traced":
		t0 := time.Now()
		cfg, err := chaosConfig(seed, "")
		load := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		c, err := compose(cfg, true)
		if err != nil {
			return err
		}
		addSpans(m, c.Spans)
		m["epnet.validate_s"] += load
		r.SetupInRunS = c.Spans.sum(setupSpans)
		cfg.Profile = true
		t1 := time.Now()
		res, err := epnet.Run(cfg)
		run := time.Since(t1).Seconds()
		if err != nil {
			return err
		}
		checkResult(r, res, true)
		checkChaos(r, res)
		es := publicStatsOf(res.Profile)
		es.layers(m)
		r.EngineS = float64(es.WallNs) / 1e9
		m["sim.measure_s"] = r.EngineS
		m["core.reconfigs"] = float64(res.Reconfigurations)
		m["fault.events"] = float64(res.Faults.Total())
		m["telemetry.traced_pkts"] = float64(res.FlowTrace.Started)
		dir, err := scratchDir(root)
		if err != nil {
			return err
		}
		flows := filepath.Join(dir, "flows-traced.json")
		t2 := time.Now()
		err = writeFlows(flows, res.FlowTrace)
		m["telemetry.export_s"] = time.Since(t2).Seconds()
		if err != nil {
			return err
		}
		defer os.Remove(flows)
		data, err := os.ReadFile(flows)
		if err != nil {
			return err
		}
		m["trace.wall_s"] = load + run + m["telemetry.export_s"]
		r.Outs = []outcome{outcomeOf(res, run)}
		r.Digest = resultDigest(res) + "/" + digestOf(string(data))
	default:
		cfg, _ := singleConfig(name, seed)
		c, err := compose(cfg, false)
		if err != nil {
			return err
		}
		addSpans(m, c.Spans)
		statsOf(c.Profile).layers(m)
		m["core.reconfigs"] = float64(c.Out.Reconfigs)
		m["trace.coverage_frac"] = c.Spans.sum(allSpans) / c.Out.WallS
		r.Outs = []outcome{c.Out}
		r.SetupInRunS = c.Spans.sum(setupSpans)
		m["trace.wall_s"] = c.Out.WallS
	}
	if cov := m["trace.coverage_frac"]; name != "chaos-traced" && cov < 0.95 {
		r.fail("traced spans cover %.3f of the composed run's wall time, below 0.95", cov)
	}
	return nil
}

// allSpans are every timed span of a composed run (heap deltas are not
// time).
var allSpans = append(append(append([]string{}, setupSpans...), engineSpans...), "link.occupancy_s")

// addSpans adds a composed run's spans into the per-layer metrics,
// skipping core.start_s, which has no metric of its own.
func addSpans(m map[string]float64, s spans) {
	for k, v := range s {
		if _, ok := m[k]; ok {
			m[k] += v
		}
	}
}

// writeFlows writes the flow-trace report as Config.FlowsOut does for a
// JSON path, so its bytes can be compared with the untraced export.
func writeFlows(path string, r *epnet.FlowTraceReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
