package epnet

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// EvalConfig scales the paper-figure experiments. The paper simulates a
// 15-ary 3-flat (3,375 hosts); the default here is a reduced instance
// that preserves every qualitative result while running in seconds (the
// energy-proportional mechanism is local to each link, so its behavior
// is scale-invariant given the same per-link load pattern — see
// DESIGN.md).
type EvalConfig struct {
	// Config is the base simulation configuration every experiment
	// derives from — there is one source of truth for run parameters,
	// and the harness fields (K/N/C, Warmup, Duration, Seed, Shards,
	// Faults, FaultRate, FaultMTTR, ...) are its promoted fields.
	// Each experiment copies it and overrides the axes it studies
	// (workload, policy, reactivation, ...). Start from DefaultEval or
	// PaperEval, not the zero value.
	Config

	// Parallel is the number of simulations run concurrently within one
	// experiment (each on its own engine): < 1 means one per CPU, 1
	// forces serial execution. Results are identical either way — see
	// RunGrid.
	Parallel int

	// Telemetry, when non-nil, gives every simulation its own output
	// files: each output path the base Config carries (see
	// Config.OutputPaths) gets a run-sequence suffix before its
	// extension, e.g. "telemetry.csv" -> "telemetry.007.csv". Suffixes
	// are assigned in configuration order before the runs fan out, so
	// -parallel execution writes byte-identical files and stdout is
	// untouched.
	Telemetry *TelemetryOpts
}

// TelemetryOpts numbers per-run output files. The same pointer threads
// through every grid of an evaluation, so the run sequence numbers all
// its simulations consecutively.
type TelemetryOpts struct {
	seq int // simulations numbered so far
}

// numberedPath inserts a zero-padded sequence before path's extension.
func numberedPath(path string, n int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%03d%s", strings.TrimSuffix(path, ext), n, ext)
}

// Apply numbers each configuration's output paths, in order. It is a
// no-op on a nil receiver.
func (t *TelemetryOpts) Apply(cfgs []Config) {
	if t == nil {
		return
	}
	for i := range cfgs {
		for _, p := range cfgs[i].OutputPaths() {
			if *p != "" {
				*p = numberedPath(*p, t.seq)
			}
		}
		t.seq++
	}
}

// DefaultEval returns the fast evaluation scale: an 8-ary 2-flat
// (64 hosts) measured for 4 ms after 1 ms of warmup.
func DefaultEval() EvalConfig {
	c := DefaultConfig()
	c.Warmup = time.Millisecond
	c.Duration = 4 * time.Millisecond
	return EvalConfig{Config: c}
}

// PaperEval returns the paper's full scale: a 15-ary 3-flat
// (3,375 hosts). Expect minutes of wall time per experiment.
func PaperEval() EvalConfig {
	e := DefaultEval()
	e.K, e.N, e.C = 15, 3, 15
	return e
}

// base is the Config an experiment starts from: the embedded Config
// itself, copied by value.
func (e EvalConfig) base() Config { return e.Config }

// grid runs a set of independent configurations with the evaluation's
// configured parallelism, results in input order.
func (e EvalConfig) grid(cfgs []Config) ([]Result, error) {
	e.Telemetry.Apply(cfgs)
	return RunGrid(cfgs, e.Parallel)
}

// evalWorkloads are the three workloads of §4.1 in the paper's order.
var evalWorkloads = []WorkloadKind{WorkloadUniform, WorkloadAdvert, WorkloadSearch}

// Figure7Result is the fraction of channel-time spent at each link
// speed for the Search workload, under paired-link and independent
// unidirectional channel control (the paper's Figure 7).
type Figure7Result struct {
	// Shares maps control mode ("paired", "independent") to
	// rate-in-Gb/s -> fraction of time.
	Paired      map[float64]float64
	Independent map[float64]float64
}

// Figure7 reproduces Figure 7: Search workload, 1 µs reactivation,
// 10 µs epoch, 50% target utilization.
func Figure7(e EvalConfig) (Figure7Result, error) {
	var out Figure7Result
	cfgs := make([]Config, 2)
	for i, independent := range []bool{false, true} {
		cfg := e.base()
		cfg.Workload = WorkloadSearch
		cfg.Policy = PolicyHalveDouble
		cfg.Independent = independent
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return out, err
	}
	out.Paired = results[0].RateShare
	out.Independent = results[1].RateShare
	return out, nil
}

// Figure8Row is one workload's relative network power under the four
// §4.2.1 configurations.
type Figure8Row struct {
	Workload WorkloadKind
	// MeasuredPaired / MeasuredIndependent: Figure 8a (measured channel
	// profile); IdealPaired / IdealIndependent: Figure 8b (ideally
	// proportional channels). All relative to the always-on baseline.
	MeasuredPaired      float64
	MeasuredIndependent float64
	IdealPaired         float64
	IdealIndependent    float64
	// IdealBound is the workload's measured average utilization — the
	// power of a perfectly energy proportional network (23/5/6% in the
	// paper for Uniform/Advert/Search).
	IdealBound float64
	// AddedMeanLatency vs the always-on baseline, paired control (the
	// §4.2.1 "10-50 µs" number); AddedMeanLatencyIndep under
	// independent control.
	AddedMeanLatency      time.Duration
	AddedMeanLatencyIndep time.Duration
}

// Figure8 reproduces Figures 8a and 8b for all three workloads, and the
// §4.2.1 latency/power numbers.
func Figure8(e EvalConfig) ([]Figure8Row, error) {
	// Three independent runs per workload: always-on baseline, paired
	// EP control, independent EP control.
	var cfgs []Config
	for _, w := range evalWorkloads {
		cfg := e.base()
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble

		base := cfg
		base.Policy = PolicyBaseline
		cfgs = append(cfgs, base)
		for _, independent := range []bool{false, true} {
			cfg.Independent = independent
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []Figure8Row
	for i, w := range evalWorkloads {
		bres, paired, indep := results[3*i], results[3*i+1], results[3*i+2]
		rows = append(rows, Figure8Row{
			Workload:              w,
			MeasuredPaired:        paired.RelPowerMeasured,
			MeasuredIndependent:   indep.RelPowerMeasured,
			IdealPaired:           paired.RelPowerIdeal,
			IdealIndependent:      indep.RelPowerIdeal,
			IdealBound:            indep.AvgUtil,
			AddedMeanLatency:      paired.MeanLatency - bres.MeanLatency,
			AddedMeanLatencyIndep: indep.MeanLatency - bres.MeanLatency,
		})
	}
	return rows, nil
}

// Figure9aRow is the added mean latency at one target utilization.
type Figure9aRow struct {
	Workload   WorkloadKind
	Target     float64
	AddedMean  time.Duration
	BaseMean   time.Duration
	RelPowerID float64 // ideal-channel power at this target
}

// Figure9a reproduces Figure 9a: added mean latency for target channel
// utilizations of 25, 50 and 75%, with 1 µs reactivation and paired
// links.
func Figure9a(e EvalConfig) ([]Figure9aRow, error) {
	targets := []float64{0.25, 0.5, 0.75}
	// Per workload: one baseline run plus one run per target.
	var cfgs []Config
	for _, w := range evalWorkloads {
		base := e.base()
		base.Workload = w
		base.Policy = PolicyBaseline
		cfgs = append(cfgs, base)
		for _, target := range targets {
			cfg := e.base()
			cfg.Workload = w
			cfg.Policy = PolicyHalveDouble
			cfg.TargetUtil = target
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(targets)
	var rows []Figure9aRow
	for i, w := range evalWorkloads {
		bres := results[stride*i]
		for j, target := range targets {
			res := results[stride*i+1+j]
			rows = append(rows, Figure9aRow{
				Workload:   w,
				Target:     target,
				AddedMean:  res.MeanLatency - bres.MeanLatency,
				BaseMean:   bres.MeanLatency,
				RelPowerID: res.RelPowerIdeal,
			})
		}
	}
	return rows, nil
}

// Figure9bRow is the added mean latency at one reactivation time.
type Figure9bRow struct {
	Workload     WorkloadKind
	Reactivation time.Duration
	AddedMean    time.Duration
	RelPowerID   float64
}

// Figure9b reproduces Figure 9b: added mean latency for reactivation
// times from 100 ns to 100 µs, with the epoch at 10x the reactivation
// time (bounding reconfiguration overhead to 10%) and a 50% target.
// The measurement window stretches to cover at least 40 epochs at the
// largest reactivation so every point sees enough epoch boundaries.
func Figure9b(e EvalConfig) ([]Figure9bRow, error) {
	reacts := []time.Duration{
		100 * time.Nanosecond,
		time.Microsecond,
		10 * time.Microsecond,
		100 * time.Microsecond,
	}
	// Per (workload, reactivation): a baseline/EP pair of runs.
	var cfgs []Config
	for _, w := range evalWorkloads {
		for _, react := range reacts {
			cfg := e.base()
			cfg.Workload = w
			cfg.Policy = PolicyHalveDouble
			cfg.Reactivation = react
			cfg.Epoch = 10 * react
			if min := 40 * cfg.Epoch; cfg.Duration < min {
				cfg.Duration = min
			}
			base := cfg
			base.Policy = PolicyBaseline
			cfgs = append(cfgs, base, cfg)
		}
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []Figure9bRow
	for i, w := range evalWorkloads {
		for j, react := range reacts {
			pair := 2 * (i*len(reacts) + j)
			bres, res := results[pair], results[pair+1]
			rows = append(rows, Figure9bRow{
				Workload:     w,
				Reactivation: react,
				AddedMean:    res.MeanLatency - bres.MeanLatency,
				RelPowerID:   res.RelPowerIdeal,
			})
		}
	}
	return rows, nil
}

// PolicyAblationRow compares link-control policies (§5.2: better
// heuristics) on one workload.
type PolicyAblationRow struct {
	Policy     PolicyKind
	RelPowerM  float64
	RelPowerID float64
	MeanLat    time.Duration
	Reconfigs  int64
	Backlog    int64
}

// PolicyAblation runs the Search workload under every policy, including
// the §4.2.1 bounds (always-fast baseline and the always-slow
// configuration that fails to keep up).
func PolicyAblation(e EvalConfig, w WorkloadKind) ([]PolicyAblationRow, error) {
	policies := []PolicyKind{
		PolicyBaseline, PolicyStaticMin, PolicyHalveDouble, PolicyMinMax, PolicyHysteresis,
	}
	cfgs := make([]Config, len(policies))
	for i, p := range policies {
		cfg := e.base()
		cfg.Workload = w
		cfg.Policy = p
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []PolicyAblationRow
	for i, p := range policies {
		res := results[i]
		rows = append(rows, PolicyAblationRow{
			Policy:     p,
			RelPowerM:  res.RelPowerMeasured,
			RelPowerID: res.RelPowerIdeal,
			MeanLat:    res.MeanLatency,
			Reconfigs:  res.Reconfigurations,
			Backlog:    res.BacklogBytes,
		})
	}
	return rows, nil
}

// DynTopoRow compares rate tuning alone against rate tuning plus
// dynamic topology (§5.1) on one workload.
type DynTopoRow struct {
	Name        string
	RelPowerM   float64
	RelPowerID  float64
	OffShare    float64
	MeanLat     time.Duration
	Transitions int64
}

// DynTopoExperiment quantifies the §5.1 proposal: powering off links
// (FBFLY -> torus-like rings) on top of rate tuning. With today's
// measured channels powering off saves little (the paper's reason for
// not evaluating it); with ideal channels it recovers the remaining
// fixed cost of idle links.
func DynTopoExperiment(e EvalConfig, w WorkloadKind) ([]DynTopoRow, error) {
	cfgs := make([]Config, 2)
	for i, dyn := range []bool{false, true} {
		cfg := e.base()
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble
		cfg.Independent = true
		cfg.DynTopo = dyn
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []DynTopoRow
	for i, dyn := range []bool{false, true} {
		res := results[i]
		name := "rate tuning only"
		if dyn {
			name = "rate tuning + dynamic topology"
		}
		rows = append(rows, DynTopoRow{
			Name:        name,
			RelPowerM:   res.RelPowerMeasured,
			RelPowerID:  res.RelPowerIdeal,
			OffShare:    res.OffShare,
			MeanLat:     res.MeanLatency,
			Transitions: res.DynTransitions,
		})
	}
	return rows, nil
}

// RoutingAblationRow compares adaptive and dimension-order routing with
// energy-proportional links enabled.
type RoutingAblationRow struct {
	Routing    RoutingKind
	MeanLat    time.Duration
	P99Lat     time.Duration
	RelPowerID float64
	Backlog    int64
}

// RoutingAblation quantifies why the paper calls congestion sensing and
// adaptivity "essential ingredients" (§6): with dimension-order routing,
// traffic cannot steer around links that are reconfiguring or detuned,
// so the same policy costs far more latency. Path diversity only exists
// with two or more switch dimensions, so this experiment always runs on
// a 3-flat (n=3) instance regardless of the evaluation scale.
func RoutingAblation(e EvalConfig, w WorkloadKind) ([]RoutingAblationRow, error) {
	if e.N < 3 {
		e.K, e.N, e.C = 4, 3, 4 // 64 hosts, 16 switches, 2 switch dims
	}
	routings := []RoutingKind{RoutingAdaptive, RoutingDOR}
	cfgs := make([]Config, len(routings))
	for i, r := range routings {
		cfg := e.base()
		cfg.Workload = w
		if w == WorkloadPermutation {
			// An adversarial pattern at meaningful load: permutation
			// streams concentrate on single dimension-ordered paths
			// under DOR, while adaptive routing spreads them.
			cfg.Load = 0.30
		}
		cfg.Policy = PolicyHalveDouble
		cfg.Routing = r
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []RoutingAblationRow
	for i, r := range routings {
		res := results[i]
		rows = append(rows, RoutingAblationRow{
			Routing:    r,
			MeanLat:    res.MeanLatency,
			P99Lat:     res.P99Latency,
			RelPowerID: res.RelPowerIdeal,
			Backlog:    res.BacklogBytes,
		})
	}
	return rows, nil
}

// ReactivationModelRow compares the flat 1 µs reactivation against the
// mode-aware SerDes model (§3.1/§5.2).
type ReactivationModelRow struct {
	Name       string
	MeanLat    time.Duration
	RelPowerID float64
	Reconfigs  int64
}

// ReactivationAblation measures what a smarter, mode-aware reactivation
// model buys: rate-only transitions (SDR<->DDR<->QDR at fixed lanes) pay
// only the ~100 ns CDR re-lock, so the latency tax of energy
// proportionality shrinks.
func ReactivationAblation(e EvalConfig, w WorkloadKind) ([]ReactivationModelRow, error) {
	type variant struct {
		name      string
		modeAware bool
		epoch     time.Duration
	}
	variants := []variant{
		{"flat 1us reactivation, 10us epoch", false, 0},
		{"mode-aware penalties, 10us epoch", true, 0},
		// With CDR-only transitions at ~100 ns, the epoch can shrink
		// toward 10x that without breaking the 10% overhead bound —
		// tracking bursts much more closely.
		{"mode-aware penalties, 2us epoch", true, 2 * time.Microsecond},
	}
	cfgs := make([]Config, len(variants))
	for i, v := range variants {
		cfg := e.base()
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble
		cfg.ModeAwareReactivation = v.modeAware
		if v.epoch > 0 {
			cfg.Epoch = v.epoch
			cfg.Reactivation = time.Microsecond
		}
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []ReactivationModelRow
	for i, v := range variants {
		res := results[i]
		rows = append(rows, ReactivationModelRow{
			Name:       v.name,
			MeanLat:    res.MeanLatency,
			RelPowerID: res.RelPowerIdeal,
			Reconfigs:  res.Reconfigurations,
		})
	}
	return rows, nil
}

// OverSubRow is one concentration point of the §2.1.1 over-subscription
// sweep.
type OverSubRow struct {
	C            int
	Hosts        int
	Ratio        float64 // c:k over-subscription
	MeanLat      time.Duration
	P99Lat       time.Duration
	RelPowerID   float64
	WattsPerHost float64 // analytic part power per host (always-on)
	Backlog      int64
}

// OverSubscription sweeps the concentration c of a fixed k-ary n-flat
// (the §2.1.1 knob: "over-subscription ... remains a practical and
// pragmatic approach to reduce power ... especially when the level of
// over-subscription is modest"). More hosts share the same switches, so
// per-host power falls while latency rises as c:k grows.
func OverSubscription(e EvalConfig, w WorkloadKind, cs []int) ([]OverSubRow, error) {
	parts := 100.0 // switch chip watts
	nic := 10.0
	cfgs := make([]Config, len(cs))
	for i, c := range cs {
		cfg := e.base()
		cfg.C = c
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble
		cfg.Independent = true
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []OverSubRow
	for i, c := range cs {
		res := results[i]
		rows = append(rows, OverSubRow{
			C:          c,
			Hosts:      res.Hosts,
			Ratio:      float64(c) / float64(e.K),
			MeanLat:    res.MeanLatency,
			P99Lat:     res.P99Latency,
			RelPowerID: res.RelPowerIdeal,
			WattsPerHost: (float64(res.Switches)*parts + float64(res.Hosts)*nic) /
				float64(res.Hosts),
			Backlog: res.BacklogBytes,
		})
	}
	return rows, nil
}

// TopoCompareRow is one topology's simulated behavior with EP links.
type TopoCompareRow struct {
	Topology   TopologyKind
	Hosts      int
	Switches   int
	Channels   int
	MeanLat    time.Duration
	RelPowerID float64
	Asymmetry  float64
}

// TopologyComparison runs the same workload and EP policy on a
// flattened butterfly and a host-count-matched non-blocking fat tree —
// the §3.3 observation that "exploiting links' dynamic range is
// possible with other topologies, such as a folded-Clos", combined with
// §2.2's point that the Clos needs more switching hardware for the same
// service.
func TopologyComparison(e EvalConfig, w WorkloadKind) ([]TopoCompareRow, error) {
	fbflyHosts := e.C
	for i := 1; i < e.N; i++ {
		fbflyHosts *= e.K
	}
	topos := []TopologyKind{TopoFBFLY, TopoFatTree, TopoClos3}
	cfgs := make([]Config, len(topos))
	for i, tk := range topos {
		cfg := e.base()
		cfg.Topology = tk
		if tk == TopoFatTree {
			// Match host count: K leaves x C hosts = C * K^(N-1) when
			// N=2; for deeper FBFLYs scale the leaf count.
			leaves := 1
			for i := 1; i < e.N; i++ {
				leaves *= e.K
			}
			cfg.K = leaves
			cfg.N = 2
		}
		if tk == TopoClos3 {
			// Nearest even pod radix: hosts = K^3/4.
			best, bestDiff := 4, 1<<30
			for k := 4; k <= 32; k += 2 {
				h := k * k * k / 4
				d := h - fbflyHosts
				if d < 0 {
					d = -d
				}
				if d < bestDiff {
					best, bestDiff = k, d
				}
			}
			cfg.K = best
		}
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble
		cfg.Independent = true
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []TopoCompareRow
	for i, tk := range topos {
		res := results[i]
		rows = append(rows, TopoCompareRow{
			Topology:   tk,
			Hosts:      res.Hosts,
			Switches:   res.Switches,
			Channels:   res.Channels,
			MeanLat:    res.MeanLatency,
			RelPowerID: res.RelPowerIdeal,
			Asymmetry:  res.Asymmetry,
		})
	}
	return rows, nil
}

// ResilienceRow is one failure count of the link-failure sweep.
type ResilienceRow struct {
	FailedLinks  int
	DeliveryRate float64 // delivered / injected packets
	MeanLat      time.Duration
	P99Lat       time.Duration
}

// Resilience abruptly fails increasing numbers of inter-switch links
// mid-run (no drain) and measures delivery and latency — quantifying
// §1's argument that a high-path-diversity network "decouples the
// failure domain from the available network bandwidth domain". The
// FBFLY router misroutes around dead links with one extra hop.
func Resilience(e EvalConfig, w WorkloadKind, failCounts []int) ([]ResilienceRow, error) {
	cfgs := make([]Config, len(failCounts))
	for i, n := range failCounts {
		cfg := e.base()
		cfg.Workload = w
		cfg.Policy = PolicyHalveDouble
		cfg.FailLinks = n
		cfgs[i] = cfg
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	var rows []ResilienceRow
	for i, n := range failCounts {
		res := results[i]
		rate := 0.0
		if res.InjectedPackets > 0 {
			rate = float64(res.DeliveredPackets) / float64(res.InjectedPackets)
		}
		rows = append(rows, ResilienceRow{
			FailedLinks:  n,
			DeliveryRate: rate,
			MeanLat:      res.MeanLatency,
			P99Lat:       res.P99Latency,
		})
	}
	return rows, nil
}

// ResilienceGridRow is one (policy, fault-rate) cell of the fault
// injection grid.
type ResilienceGridRow struct {
	Policy    PolicyKind
	FaultRate float64 // events per simulated millisecond
	// DeliveredFrac is delivered / (delivered + dropped) — packets lost
	// to dead channels, crashed switches, and unroutable destinations.
	DeliveredFrac float64
	MeanLat       time.Duration
	// AddedMean is the latency this fault rate costs versus the same
	// policy on a healthy fabric.
	AddedMean    time.Duration
	RelPowerID   float64
	LinkFailures int64
	Degradations int64
}

// ResilienceGrid crosses link-control policies with seeded-random fault
// rates: for each policy one clean run plus one run per rate, measuring
// what faults cost in delivery, latency, and power. The interesting
// comparison is energy-proportional policies against the always-on
// baseline — a detuned network rides through the same fault history
// with the same delivered fraction, paying only latency.
func ResilienceGrid(e EvalConfig, w WorkloadKind, policies []PolicyKind, rates []float64) ([]ResilienceGridRow, error) {
	var cfgs []Config
	for _, p := range policies {
		clean := e.base()
		clean.Workload = w
		clean.Policy = p
		clean.FaultRate, clean.Faults = 0, ""
		cfgs = append(cfgs, clean)
		for _, r := range rates {
			cfg := clean
			cfg.FaultRate = r
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := e.grid(cfgs)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(rates)
	var rows []ResilienceGridRow
	for i, p := range policies {
		clean := results[stride*i]
		for j, r := range rates {
			res := results[stride*i+1+j]
			rows = append(rows, ResilienceGridRow{
				Policy:        p,
				FaultRate:     r,
				DeliveredFrac: res.DeliveredFraction,
				MeanLat:       res.MeanLatency,
				AddedMean:     res.MeanLatency - clean.MeanLatency,
				RelPowerID:    res.RelPowerIdeal,
				LinkFailures:  res.Faults.LinkFailures,
				Degradations:  res.Faults.LaneDegradations,
			})
		}
	}
	return rows, nil
}

// SavingsProjection extrapolates a simulated relative power to the
// paper's full-scale 32k-host FBFLY network, in watts and four-year
// dollars — the basis of the paper's "$2.4M additional savings" claim.
func SavingsProjection(relPower float64) (savedWatts, savedDollars float64) {
	t := Table1()
	savedWatts = t.FBFLY.TotalWatts * (1 - relPower)
	return savedWatts, CostOfWatts(savedWatts)
}

// WorkloadLabel formats workload names like the paper's figures.
func WorkloadLabel(w WorkloadKind) string {
	switch w {
	case WorkloadUniform:
		return "Uniform"
	case WorkloadAdvert:
		return "Advert"
	case WorkloadSearch:
		return "Search"
	default:
		return fmt.Sprintf("%v", w)
	}
}
