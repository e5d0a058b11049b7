package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"epnet"
	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/power"
	"epnet/internal/routing"
	"epnet/internal/scenario"
	"epnet/internal/sim"
	"epnet/internal/stats"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// The composer rebuilds epnet.Run from the layers' public
// functions and times each call from outside, so per-layer numbers come
// from the program itself and not from tracing inside it. It covers the
// configurations the benchmark's workloads use: a flattened butterfly
// with adaptive routing, no faults, no telemetry outputs, and either
// the always-on baseline or halve/double link control. A scenario is
// supported only for set-up (setupOnly), because its phase plan and
// chaos scheduling are not public. Fidelity against epnet.Run is
// checked on every traced run (see fidelityErrs).

// spans are named host-time intervals in seconds, plus heap deltas in
// MB for the two set-up layers that hold most of the memory.
type spans map[string]float64

// setupSpans are the spans before the first simulated event; their sum
// is setup_s.
var setupSpans = []string{"epnet.validate_s", "topo.build_s", "routing.build_s",
	"fabric.build_s", "core.start_s", "traffic.start_s"}

// engineSpans are the two RunUntil calls.
var engineSpans = []string{"sim.warmup_s", "sim.measure_s"}

func (s spans) sum(names []string) float64 {
	var t float64
	for _, n := range names {
		t += s[n]
	}
	return t
}

// heapMB reads the bytes held by live and not-yet-swept heap objects.
func heapMB() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// outcome is what one simulation produced, from epnet.Run or the
// composer: its wall time, the fields the fidelity gate
// compares, and the two a Figure 9b row needs.
type outcome struct {
	WallS            float64 `json:"wall_s"`
	Injected         int64   `json:"injected"`
	Delivered        int64   `json:"delivered"`
	Dropped          int64   `json:"dropped"`
	Reconfigs        int64   `json:"reconfigs"`
	RelPowerMeasured float64 `json:"rel_power_measured"`
	RelPowerIdeal    float64 `json:"rel_power_ideal"`
	MeanLatencyNs    int64   `json:"mean_latency_ns"`
}

func outcomeOf(res epnet.Result, wall float64) outcome {
	return outcome{
		WallS:            wall,
		Injected:         res.InjectedPackets,
		Delivered:        res.DeliveredPackets,
		Dropped:          res.DroppedPackets,
		Reconfigs:        res.Reconfigurations,
		RelPowerMeasured: res.RelPowerMeasured,
		RelPowerIdeal:    res.RelPowerIdeal,
		MeanLatencyNs:    res.MeanLatency.Nanoseconds(),
	}
}

// composed is one traced run of the composer.
type composed struct {
	Spans   spans
	Profile *telemetry.EngineProfile
	Out     outcome
}

func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// compose runs cfg through the layers' public calls, recording a span
// around each. With setupOnly it stops before the first simulated
// event. cfg must already carry its scenario, if any; Validate runs
// inside the epnet.validate_s span.
func compose(cfg epnet.Config, setupOnly bool) (*composed, error) {
	c := &composed{Spans: spans{}}
	t0 := time.Now()
	span := func(name string, fn func()) {
		s := time.Now()
		fn()
		c.Spans[name] += time.Since(s).Seconds()
	}
	memSpan := func(name, mb string, fn func()) {
		m := heapMB()
		span(name, fn)
		c.Spans[mb] += heapMB() - m
	}

	var err error
	span("epnet.validate_s", func() { err = cfg.Validate() })
	if err != nil {
		return nil, err
	}
	if cfg.Topology != epnet.TopoFBFLY || cfg.Routing != epnet.RoutingAdaptive ||
		cfg.Faults != "" || cfg.FaultRate > 0 || cfg.FailLinks > 0 || cfg.DynTopo ||
		(cfg.Policy != epnet.PolicyBaseline && cfg.Policy != epnet.PolicyHalveDouble) {
		return nil, fmt.Errorf("compose: unsupported config %s/%s/%s", cfg.Topology, cfg.Routing, cfg.Policy)
	}
	if cfg.Scenario != nil && !setupOnly {
		return nil, fmt.Errorf("compose: scenarios are composed for set-up only")
	}

	e := sim.New()
	var t *topo.FBFLY
	span("topo.build_s", func() { t, err = topo.NewFBFLY(cfg.K, cfg.N, cfg.C) })
	if err != nil {
		return nil, err
	}
	var router *routing.FBFLY
	span("routing.build_s", func() { router = routing.NewFBFLY(t) })
	fcfg := fabric.DefaultConfig()
	fcfg.MaxPacket = cfg.MaxPacket
	fcfg.Seed = cfg.Seed
	fcfg.Shards = cfg.Shards
	var net *fabric.Network
	memSpan("fabric.build_s", "fabric.build_mb", func() { net, err = fabric.New(e, t, router, fcfg) })
	if err != nil {
		return nil, err
	}
	defer net.Close()
	prof := telemetry.NewEngineProfiler(net.NumShards())
	net.SetProfiler(prof)

	warmup := simTime(cfg.Warmup)
	horizon := warmup + simTime(cfg.Duration)
	lats := make([]*stats.Latency, net.NumShards())
	for i := range lats {
		lats[i] = stats.NewLatency()
	}
	net.OnDeliver = func(p *fabric.Packet, now sim.Time) {
		if p.Inject >= warmup {
			lats[net.HostShard(p.Dst)].Add(now - p.Inject)
		}
	}
	// epnet.Run also records message latency; the callback costs the
	// same here so the engine spans time the same work.
	msgLats := make([]*stats.Latency, net.NumShards())
	for i := range msgLats {
		msgLats[i] = stats.NewLatency()
	}
	net.OnMessageDone = func(_ int64, _, dst int, inject, done sim.Time) {
		if inject >= warmup {
			msgLats[net.HostShard(dst)].Add(done - inject)
		}
	}

	var ctrl *core.Controller
	if cfg.Policy == epnet.PolicyHalveDouble {
		ctrl = &core.Controller{
			Net:          net,
			Epoch:        simTime(cfg.Epoch),
			Reactivation: simTime(cfg.Reactivation),
			Paired:       !cfg.Independent,
			ModeAware:    cfg.ModeAwareReactivation,
			Policy:       core.HalveDouble{Target: cfg.TargetUtil},
		}
		span("core.start_s", func() { err = ctrl.Start() })
		if err != nil {
			return nil, err
		}
	}

	memSpan("traffic.start_s", "traffic.start_mb", func() { err = startTraffic(cfg, e, net, horizon) })
	if err != nil {
		return nil, err
	}
	if setupOnly {
		c.Out.WallS = time.Since(t0).Seconds()
		return c, nil
	}

	span("sim.warmup_s", func() { net.RunUntil(warmup) })
	span("link.occupancy_s", func() {
		for _, ch := range net.Channels() {
			ch.L.ResetAccounting(e.Now())
		}
	})
	if ctrl != nil {
		ctrl.Reconfigurations = 0
	}
	span("sim.measure_s", func() { net.RunUntil(horizon) })

	measured := power.InfiniBandOptical()
	ideal := power.NewIdeal(fcfg.Ladder.Max())
	var pm, pi float64
	span("link.occupancy_s", func() {
		now := e.Now()
		for _, ch := range net.Channels() {
			occ := ch.L.Occupancy(now)
			pm += power.OccupancyPower(occ, measured)
			pi += power.OccupancyPower(occ, ideal)
		}
	})
	lat := lats[0]
	for _, l := range lats[1:] {
		lat.Merge(l)
	}
	nch := float64(len(net.Channels()))
	c.Out.RelPowerMeasured = pm / nch
	c.Out.RelPowerIdeal = pi / nch
	c.Out.MeanLatencyNs = int64(lat.Mean() / sim.Nanosecond)
	c.Out.Injected, _ = net.Injected()
	c.Out.Delivered, _ = net.Delivered()
	c.Out.Dropped, _ = net.Dropped()
	if ctrl != nil {
		c.Out.Reconfigs = ctrl.Reconfigurations
	}
	c.Profile = prof.Snapshot()
	c.Out.WallS = time.Since(t0).Seconds()
	return c, nil
}

// startTraffic builds the run's traffic sources and starts the first
// phase's at t=0, as epnet.Run does: the flag-configured workload as
// one streaming source, or every phase's streams of a scenario with
// the same per-stream seeds.
func startTraffic(cfg epnet.Config, e *sim.Engine, net *fabric.Network, horizon sim.Time) error {
	if cfg.Scenario == nil {
		src, err := scenario.NewSource(scenario.Traffic{Workload: string(cfg.Workload), Load: cfg.Load}, cfg.Seed)
		if err != nil {
			return err
		}
		src.Run(e, net, 0, horizon)
		return nil
	}
	for i, ph := range cfg.Scenario.Phases {
		for j, spec := range ph.Traffic {
			seed := cfg.Seed
			if i > 0 || j > 0 {
				seed = scenario.PhaseSeed(cfg.Seed, ph.Name, fmt.Sprintf("traffic:%d", j))
			}
			src, err := scenario.NewSource(spec, seed)
			if err != nil {
				return err
			}
			if i == 0 {
				end := simTime(cfg.Warmup) + simTime(ph.Duration.D())
				src.Run(e, net, 0, end)
			}
		}
	}
	return nil
}
