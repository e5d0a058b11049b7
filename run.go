package epnet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/fault"
	"epnet/internal/link"
	"epnet/internal/parallel"
	"epnet/internal/power"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/stats"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// simTime converts a wall-clock-style duration to simulator picoseconds.
func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// toDuration converts simulator time back to a time.Duration
// (picoseconds truncate to nanoseconds).
func toDuration(t sim.Time) time.Duration {
	return time.Duration(int64(t) / int64(sim.Nanosecond))
}

// buildTopology constructs the configured topology and its router.
func buildTopology(cfg Config) (topo.Topology, routing.Router, *routing.FBFLY, error) {
	switch cfg.Topology {
	case TopoFatTree:
		t, err := topo.NewFatTree(cfg.C, cfg.K, cfg.K)
		if err != nil {
			return nil, nil, nil, err
		}
		return t, routing.NewFatTree(t), nil, nil
	case TopoClos3:
		t, err := topo.NewClos3(cfg.K)
		if err != nil {
			return nil, nil, nil, err
		}
		return t, routing.NewClos3(t), nil, nil
	default:
		t, err := topo.NewFBFLY(cfg.K, cfg.N, cfg.C)
		if err != nil {
			return nil, nil, nil, err
		}
		if cfg.Routing == RoutingDOR {
			return t, &routing.DOR{F: t}, nil, nil
		}
		r := routing.NewFBFLY(t)
		return t, r, r, nil
	}
}

// Workload construction lives in scenario.go: every run — flag-
// configured or scenario-driven — resolves through buildPlan into
// streaming sources, so there is exactly one traffic codepath.

// advance drives the network to until, checking ctx for cooperative
// cancellation at every epoch boundary. A context that can never be
// canceled (Run's context.Background) collapses to a single RunUntil
// call, so the uncancelable path costs nothing extra. Cancellation
// observed after the window completes is ignored — the work is done.
// Network.RunUntil dispatches to the serial engine or the shard
// coordinator, so cancellation granularity is the same either way.
func advance(ctx context.Context, net *fabric.Network, until, epoch sim.Time) error {
	if ctx.Done() == nil {
		net.RunUntil(until)
		return nil
	}
	for now := net.E.Now(); now < until; now = net.E.Now() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("epnet: run canceled at %v: %w", toDuration(now), err)
		}
		step := now + epoch
		if step > until {
			step = until
		}
		net.RunUntil(step)
	}
	return nil
}

// chanLabels returns every channel's wiring label, indexed by channel.
func chanLabels(net *fabric.Network) []string {
	labels := make([]string, len(net.Channels()))
	for i, ch := range net.Channels() {
		labels[i] = ch.Label()
	}
	return labels
}

// linkChannels returns every channel's link, indexed by channel.
func linkChannels(net *fabric.Network) []*link.Channel {
	chans := make([]*link.Channel, len(net.Channels()))
	for i, ch := range net.Channels() {
		chans[i] = ch.L
	}
	return chans
}

// buildInjector constructs and wires the fault injector when cfg or the
// run plan asks for any kind of fault, or returns nil.
func buildInjector(cfg Config, plan *runPlan, net *fabric.Network, router routing.Router,
	fbflyRouter *routing.FBFLY) (*fault.Injector, error) {
	if cfg.Faults == "" && cfg.FaultRate <= 0 && cfg.FailLinks <= 0 && !plan.hasChaos {
		return nil, nil
	}
	masker, ok := router.(routing.PortMasker)
	if !ok {
		return nil, fieldErr("Routing", "fault injection requires adaptive routing, got %q", cfg.Routing)
	}
	inj := fault.New(net, masker)
	if cfg.ModeAwareReactivation {
		// A repaired link retrains its lanes; a cap-forced retune only
		// re-locks the receive CDR (§3.1).
		rm := link.DefaultReactivation()
		inj.RepairReactivation = rm.LaneChange
		inj.DegradeReactivation = rm.CDRLock
	} else {
		inj.RepairReactivation = simTime(cfg.Reactivation)
		inj.DegradeReactivation = simTime(cfg.Reactivation)
	}
	if cfg.Policy == PolicyBaseline && !plan.policySwitch {
		// No controller will climb the ladder; a restored link retunes
		// straight back to line rate. (A scenario that switches policy
		// forces the controller on, which climbs by itself.)
		inj.RestoreRate = net.Cfg.Ladder.Max()
	}
	if fbflyRouter != nil {
		// Random faults must not partition the network: both endpoints
		// keep at least two live links in the affected dimension (real
		// clusters with more damage would be drained by operators).
		fb := fbflyRouter.F
		liveInDim := func(sw, dim int) int {
			live := 0
			for v := 0; v < fb.K; v++ {
				if v == fb.Coord(sw, dim) {
					continue
				}
				if !fbflyRouter.Dead(sw, fb.PortToPeer(sw, dim, v)) {
					live++
				}
			}
			return live
		}
		inj.Guard = func(pr [2]*fabric.Chan) bool {
			dim := fb.PortDim(pr[0].Src.Port)
			return liveInDim(pr[0].Src.ID, dim) >= 2 && liveInDim(pr[1].Src.ID, dim) >= 2
		}
	}
	return inj, nil
}

// scheduleFaults puts cfg's fault events on the engine: the legacy
// abrupt FailLinks batch, the explicit Faults schedule, and the
// seeded-random FaultRate process. Offsets are relative to warmup.
func scheduleFaults(cfg Config, e *sim.Engine, inj *fault.Injector,
	warmup, horizon sim.Time) error {
	if cfg.FailLinks > 0 {
		failAt := cfg.FailAfter
		if failAt == 0 {
			failAt = cfg.Duration / 4
		}
		count := cfg.FailLinks
		e.At(warmup+simTime(failAt), func(now sim.Time) {
			inj.FailRandomLinks(now, count, cfg.Seed)
		})
	}
	if cfg.Faults != "" {
		sched, err := fault.ParseSchedule(cfg.Faults)
		if err != nil {
			return fieldErr("Faults", "%v", err) // unreachable: Validate parsed it
		}
		if err := inj.Apply(warmup, sched); err != nil {
			return fieldErr("Faults", "%v", err)
		}
	}
	if cfg.FaultRate > 0 {
		inj.StartRandom(warmup, horizon, cfg.FaultRate, simTime(cfg.FaultMTTR), cfg.Seed)
	}
	return nil
}

// Run executes one simulation described by cfg and returns its
// measurements. The run is deterministic for a given Config. It is
// shorthand for RunContext with a background context.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: when ctx is
// canceled, the simulation stops at the next epoch boundary and the
// context's error is returned (wrapped; test with errors.Is). A run
// that completes its measurement window before cancellation is
// observed returns its Result normally.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	e := sim.New()
	t, router, fbflyRouter, err := buildTopology(cfg)
	if err != nil {
		return Result{}, err
	}
	// Resolve the run into its phase plan before the fabric is built,
	// so a trace that does not fit the topology fails here. A
	// flag-configured run is the implicit single steady phase; a
	// scenario contributes its phases. Either way the traffic below
	// starts from streaming sources.
	warmup := simTime(cfg.Warmup)
	horizon := warmup + simTime(cfg.Duration)
	plan, err := buildPlan(cfg, t.NumHosts(), warmup, horizon)
	if err != nil {
		return Result{}, err
	}
	fcfg := fabric.DefaultConfig()
	fcfg.MaxPacket = cfg.MaxPacket
	fcfg.Seed = cfg.Seed
	fcfg.Shards = cfg.Shards
	net, err := fabric.New(e, t, router, fcfg)
	if err != nil {
		return Result{}, err
	}
	defer net.Close()

	// Optional engine self-profiling, attached before the first window
	// runs. The profiler observes wall-clock cost at window/barrier
	// granularity only — nothing on the deterministic simulation path
	// changes, so every other Result field and every telemetry file is
	// byte-identical with profiling on or off.
	var eprof *telemetry.EngineProfiler
	if cfg.Profile || cfg.ProfileOut != "" {
		eprof = telemetry.NewEngineProfiler(net.NumShards())
		net.SetProfiler(eprof)
	}

	// Optional flow tracing: hash-sampled packets carry hop logs, the
	// collector aggregates them per phase. Sampling is a pure function
	// of packet ID and seed and all merging is canonical, so every
	// FlowTrace byte — like every other Result field — is identical
	// across shard counts; with tracing off the packet path keeps its
	// zero-allocation fast path (one nil check).
	var flow *telemetry.FlowCollector
	if cfg.FlowTrace {
		flow = telemetry.NewFlowCollector(net.NumShards(), len(net.Channels()),
			cfg.FlowSample, cfg.Seed)
		names := make([]string, len(plan.phases))
		ends := make([]sim.Time, len(plan.phases))
		for i := range plan.phases {
			names[i], ends[i] = plan.phases[i].name, plan.phases[i].end
		}
		flow.SetClasses(names, ends)
		net.SetFlowCollector(flow)
	}

	// Latency is recorded only for packets injected after warmup. The
	// delivery callbacks run on the shard owning the destination host,
	// so each shard accumulates into its own Latency; the integer-based
	// Merge after the run makes the totals independent of shard count.
	lats := make([]*stats.Latency, net.NumShards())
	msgLats := make([]*stats.Latency, net.NumShards())
	for i := range lats {
		lats[i] = stats.NewLatency()
		msgLats[i] = stats.NewLatency()
	}
	net.OnDeliver = func(p *fabric.Packet, now sim.Time) {
		if p.Inject >= warmup {
			lats[net.HostShard(p.Dst)].Add(now - p.Inject)
		}
	}
	net.OnMessageDone = func(_ int64, _, dst int, inject, done sim.Time) {
		if inject >= warmup {
			msgLats[net.HostShard(dst)].Add(done - inject)
		}
	}

	// Link control. A scenario that switches policy mid-run forces the
	// controller on even when the opening policy is baseline/static-min
	// (as a Static pin) — something has to execute the switch.
	var ctrl *core.Controller
	switch {
	case cfg.Policy == PolicyBaseline && !plan.policySwitch:
		// Links stay at the ladder maximum; nothing to do.
	case cfg.Policy == PolicyStaticMin && !plan.policySwitch:
		for _, ch := range net.Channels() {
			ch.L.SetRate(0, net.Cfg.Ladder.Min(), 0)
		}
	default:
		if cfg.Policy == PolicyStaticMin {
			// Start at the floor immediately; the controller holds it
			// there until a phase switches policy.
			for _, ch := range net.Channels() {
				ch.L.SetRate(0, net.Cfg.Ladder.Min(), 0)
			}
		}
		ctrl = &core.Controller{
			Net:          net,
			Epoch:        simTime(cfg.Epoch),
			Reactivation: simTime(cfg.Reactivation),
			Paired:       !cfg.Independent,
		}
		ctrl.ModeAware = cfg.ModeAwareReactivation
		ctrl.Policy = resolveCorePolicy(cfg.Policy, cfg.TargetUtil, net)
		if err := ctrl.Start(); err != nil {
			return Result{}, err
		}
	}

	var dyn *core.DynTopo
	if cfg.DynTopo {
		if fbflyRouter == nil {
			return Result{}, fmt.Errorf("epnet: dynamic topology requires FBFLY")
		}
		dyn = core.DefaultDynTopo(net, fbflyRouter)
		dyn.Reactivation = simTime(cfg.Reactivation)
		if err := dyn.Start(); err != nil {
			return Result{}, err
		}
	}

	// Fault injection: one injector executes the explicit schedule, the
	// seeded-random process, the legacy abrupt-failure batch, and the
	// scenario's chaos campaigns.
	inj, err := buildInjector(cfg, plan, net, router, fbflyRouter)
	if err != nil {
		return Result{}, err
	}

	// Per-phase scorecard (multi-phase scenarios only): snapshot events
	// at the inner phase boundaries plus per-phase latency recorders.
	// Single-phase runs skip all of it, so their event sequence — and
	// thus every result byte — matches the equivalent flag run.
	var acct *phaseAccounting
	if plan.multi {
		acct = newPhaseAccounting(plan, net, ctrl, inj)
		acct.schedule(e)
		net.OnDeliver = func(p *fabric.Packet, now sim.Time) {
			if p.Inject >= warmup {
				sh := net.HostShard(p.Dst)
				lats[sh].Add(now - p.Inject)
				acct.record(sh, p.Inject, now-p.Inject)
			}
		}
	}

	// Optional telemetry: the controller's epoch tick is already
	// scheduled, so on coincident timestamps the sampler observes
	// post-retune link state (the engine breaks ties FIFO).
	obs, err := newObserver(cfg, e, net, ctrl, fbflyRouter, inj, eprof, flow, horizon)
	if err != nil {
		return Result{}, err
	}

	// fail funnels early exits after the observer exists: it writes
	// every configured output from live state, so an interrupted run
	// (^C on epsim) still leaves its diagnostics behind.
	fail := func(err error) (Result, error) {
		return Result{}, errors.Join(err, obs.finish(e.Now(), nil))
	}

	// Traffic. Phase 0's sources start inline here — the engine is at
	// t=0, the exact call site the single-workload path used — and each
	// later phase's traffic and policy switch is scheduled at its
	// boundary. From here on, every early return funnels through
	// obs.finish so files the observer opened are flushed and closed,
	// and any latched telemetry write error surfaces (finish is
	// idempotent and nil-safe).
	plan.start(e, net, ctrl)

	if inj != nil {
		if err := scheduleFaults(cfg, e, inj, warmup, horizon); err != nil {
			return fail(err)
		}
		if err := scheduleChaos(cfg, plan, inj, warmup); err != nil {
			return fail(err)
		}
	}

	// Optional instantaneous power sampling.
	var trace []PowerSample
	if cfg.PowerSampleEvery > 0 {
		interval := simTime(cfg.PowerSampleEvery)
		chans := linkChannels(net)
		measured := power.NewMeter(power.InfiniBandOptical(), chans)
		ideal := power.NewMeter(power.NewIdeal(net.Cfg.Ladder.Max()), chans)
		capacity := float64(net.Cfg.Ladder.Max()) / 8 * interval.Seconds() * float64(len(chans))
		var lastBytes int64
		var sample func(now sim.Time)
		sample = func(now sim.Time) {
			if now > horizon {
				return
			}
			var bytes int64
			for _, c := range chans {
				bytes += c.TotalBytes()
			}
			util := 0.0
			if capacity > 0 {
				util = float64(bytes-lastBytes) / capacity
			}
			lastBytes = bytes
			trace = append(trace, PowerSample{
				At:       toDuration(now - warmup),
				Measured: measured.Relative(now),
				Ideal:    ideal.Relative(now),
				Util:     util,
			})
			e.After(interval, sample)
		}
		// Channel byte counters reset at the warmup boundary, so the
		// first sample (one interval in) sees exactly the bytes moved
		// since then.
		e.At(warmup+interval, sample)
	}

	// Warmup, then reset accounting so power/occupancy reflect steady
	// state.
	epoch := simTime(cfg.Epoch)
	if err := advance(ctx, net, warmup, epoch); err != nil {
		return fail(err)
	}
	for _, ch := range net.Channels() {
		ch.L.ResetAccounting(e.Now())
	}
	if ctrl != nil {
		ctrl.Reconfigurations = 0
	}
	if acct != nil {
		// Phase 0's measured slice starts here, with counters exactly as
		// the reset left them.
		acct.snaps[0] = acct.snapshot()
	}
	if err := advance(ctx, net, horizon, epoch); err != nil {
		return fail(err)
	}
	if acct != nil {
		acct.snaps[len(plan.phases)] = acct.snapshot()
	}

	// Fold the per-shard latency recorders into one distribution. Merge
	// is a pure integer reduction, so the folded statistics match what a
	// serial run records directly.
	lat, msgLat := lats[0], msgLats[0]
	for _, l := range lats[1:] {
		lat.Merge(l)
	}
	for _, l := range msgLats[1:] {
		msgLat.Merge(l)
	}

	// Collect.
	res := Result{
		Config:   cfg,
		Hosts:    t.NumHosts(),
		Switches: t.NumSwitches(),
		Channels: len(net.Channels()),
	}
	res.MeanLatency = toDuration(lat.Mean())
	res.P50Latency = toDuration(lat.Percentile(50))
	res.P99Latency = toDuration(lat.Percentile(99))
	res.MaxLatency = toDuration(lat.Max())
	res.Packets = lat.Count()
	res.MsgMeanLatency = toDuration(msgLat.Mean())
	res.MsgP99Latency = toDuration(msgLat.Percentile(99))
	res.Messages = msgLat.Count()

	var share stats.RateShare
	measured := power.InfiniBandOptical()
	ideal := power.NewIdeal(net.Cfg.Ladder.Max())
	parts := power.DefaultPartPower()
	fullWatts := float64(t.NumSwitches())*parts.SwitchChipWatts +
		float64(t.NumHosts())*parts.NICWatts

	// Optional per-channel attribution, charged under the same
	// measured profile and part model as the aggregate estimate so the
	// per-channel energies sum exactly to Result.EnergyJoules. Flow
	// tracing forces the computation (its energy join charges traced
	// bytes each channel's energy) even when Result.Attribution itself
	// stays off.
	var attr *power.Attribution
	if cfg.Attribution || flow != nil {
		attr = power.NewAttribution(fullWatts, len(net.Channels()),
			simTime(cfg.Duration), measured)
	}
	var chanEnergy []float64
	var chanTotBytes []int64
	if flow != nil {
		chanEnergy = make([]float64, len(net.Channels()))
		chanTotBytes = make([]int64, len(net.Channels()))
	}

	var pm, pi, util float64
	var classAcc, classCnt [topo.NumLinkClasses]float64
	now := e.Now()
	for ci, ch := range net.Channels() {
		occ := ch.L.Occupancy(now)
		share.Add(occ)
		chPower := power.OccupancyPower(occ, measured)
		pm += chPower
		pi += power.OccupancyPower(occ, ideal)
		chUtil := ch.L.MeanUtilization(now)
		util += chUtil

		// Per-class breakdown: host channels are electrical; switch
		// channels follow the topology's packaging classification.
		class := topo.Electrical
		if ch.Src.Kind == topo.KindSwitch {
			class = t.LinkClass(ch.Src.ID, ch.Src.Port)
		}
		classAcc[class] += chPower
		classCnt[class]++

		if attr != nil {
			ce := attr.Add(ch.Label(), class.String(), occ, chUtil)
			if chanEnergy != nil {
				chanEnergy[ci] = ce.EnergyJ
				chanTotBytes[ci] = ch.L.TotalBytes()
			}
			if !cfg.Attribution {
				continue
			}
			la := LinkAttribution{
				Link:         ce.Name,
				Class:        ce.Class,
				Utilization:  ce.Utilization,
				RelPower:     ce.RelPower,
				EnergyJoules: ce.EnergyJ,
				TimeAtRate:   RateShareMap{},
				OffSeconds:   ce.OffTime.Seconds(),
				Bytes:        ch.L.TotalBytes(),
				Packets:      ch.L.TotalPackets(),
				Drops:        ch.Drops(),
			}
			for i, tt := range ce.TimeAtRate {
				if tt > 0 {
					la.TimeAtRate[net.Cfg.Ladder[i].GbpsF()] = tt.Seconds()
				}
			}
			res.Attribution = append(res.Attribution, la)
		}
	}
	nch := float64(len(net.Channels()))
	res.RelPowerMeasured = pm / nch
	res.RelPowerIdeal = pi / nch
	res.AvgUtil = util / nch
	res.ClassPower = map[string]float64{}
	for class, n := range classCnt {
		if n > 0 {
			res.ClassPower[topo.LinkClass(class).String()] = classAcc[class] / n
		}
	}

	// Directional asymmetry across link pairs (byte-weighted).
	var asymNum, asymDen float64
	for _, pr := range net.Pairs() {
		a := float64(pr[0].L.TotalBytes())
		b := float64(pr[1].L.TotalBytes())
		if a+b == 0 {
			continue
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		asymNum += d
		asymDen += a + b
	}
	if asymDen > 0 {
		res.Asymmetry = asymNum / asymDen
	}

	// Energy estimate: the simulated network's part power scaled by the
	// measured relative power, integrated over the measurement window.
	res.EstimatedWatts = fullWatts * res.RelPowerMeasured
	res.EnergyJoules = res.EstimatedWatts * simTime(cfg.Duration).Seconds()

	for _, b := range lat.Buckets() {
		res.LatencyCDF = append(res.LatencyCDF, LatencyBucket{
			Upper: toDuration(b.Upper),
			Count: b.Count,
		})
	}
	res.RateShare = RateShareMap{}
	for i, t := range share.At {
		if t > 0 {
			res.RateShare[net.Cfg.Ladder[i].GbpsF()] = share.Fraction(i)
		}
	}
	res.OffShare = share.OffFraction()
	if ctrl != nil {
		res.Reconfigurations = ctrl.Reconfigurations
	}
	if dyn != nil {
		res.DynTransitions = dyn.Transitions
	}
	res.InjectedPackets, _ = net.Injected()
	res.DeliveredPackets, res.DeliveredBytes = net.Delivered()
	res.DroppedPackets, res.DroppedBytes = net.Dropped()
	res.DeliveredFraction = 1.0
	if res.DroppedPackets > 0 {
		res.DeliveredFraction = float64(res.DeliveredPackets) /
			float64(res.DeliveredPackets+res.DroppedPackets)
	}
	if inj != nil {
		res.Faults = FaultStats(inj.Stats)
	}
	res.BacklogBytes = net.HostBacklogBytes()
	res.PeakQueueBytes = net.PeakQueueBytes()
	res.PowerTrace = trace
	if acct != nil {
		res.PhaseScores = acct.scores(warmup, t.NumHosts())
	}
	if flow != nil {
		res.FlowTrace = newFlowTraceReport(flow.Snapshot(), chanLabels(net),
			chanEnergy, chanTotBytes)
		// The collector's classes are the plan's phases, so a scorecard
		// row and its decomposition line up by index.
		for i := range res.PhaseScores {
			res.FlowTrace.Classes[i].applyToScore(&res.PhaseScores[i])
		}
	}
	if eprof != nil {
		res.Profile = newEngineProfile(eprof.Snapshot())
	}
	if err := obs.finish(now, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunGrid executes every configuration across at most workers
// goroutines (workers < 1 means one per CPU) and returns the results in
// input order. Each simulation is fully self-contained — its own event
// engine and seeded RNGs — so the results are identical to running the
// configurations serially; only wall-clock time changes. On error, the
// error of the lowest-index failing configuration is returned and no
// results are.
func RunGrid(cfgs []Config, workers int) ([]Result, error) {
	return RunGridContext(context.Background(), cfgs, workers)
}

// RunGridContext is RunGrid with cooperative cancellation: the shared
// ctx cancels every in-flight simulation at its next epoch boundary,
// and the first (lowest-index) error is returned.
func RunGridContext(ctx context.Context, cfgs []Config, workers int) ([]Result, error) {
	return parallel.Map(len(cfgs), workers, func(i int) (Result, error) {
		return RunContext(ctx, cfgs[i])
	})
}
