package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/fault"
	"epnet/internal/link"
	"epnet/internal/power"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// latencyBucketsUs are the fixed upper bounds (microseconds) of the
// packet-latency histogram registered as net.latency_us.
var latencyBucketsUs = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// latBucket returns the net.latency_us bucket index for a latency in
// microseconds: the first bucket whose upper bound covers v, or the
// final +Inf bucket. It mirrors Histogram.Observe's lower-bound search
// so shard-local accumulation buckets identically to direct observation.
func latBucket(v float64) int {
	lo, hi := 0, len(latencyBucketsUs)
	for lo < hi {
		mid := (lo + hi) / 2
		if latencyBucketsUs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// latShard accumulates the packet-latency distribution observed by one
// shard: per-bucket counts plus an exact integer time sum. Each shard
// writes only its own entry, and the merged reduction (integer adds) is
// order-independent, so the rendered histogram is byte-identical across
// shard counts.
type latShard struct {
	counts []int64
	sum    sim.Time
	n      int64
}

// utilBuckets are the upper bounds of the link-utilization histogram
// (the paper's Fig 8 x-axis: twenty 5% bins).
var utilBuckets = []float64{
	0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
	0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00,
}

// observer wires a run's optional telemetry: the metrics sampler
// behind Config.MetricsOut, the Chrome trace stream behind
// Config.TraceOut, the utilization heatmap and histogram behind
// Config.HeatmapOut/HistOut, and the live-inspection publisher behind
// Config.Inspector. newObserver returns nil when everything is
// disabled, so Run pays nothing for observability it did not ask for.
type observer struct {
	cfg       Config
	e         *sim.Engine
	net       *fabric.Network
	inj       *fault.Injector
	prof      *telemetry.EngineProfiler
	flow      *telemetry.FlowCollector
	flowChans []string
	reg       *telemetry.Registry
	sampler   *telemetry.Sampler
	heatmap   *telemetry.Heatmap
	tracer    *telemetry.Tracer
	traceFile *os.File
	measured  *power.Meter
	ideal     *power.Meter
	snapBuf   bytes.Buffer
	promBuf   bytes.Buffer
	profBuf   bytes.Buffer
	flowBuf   bytes.Buffer
	done      bool
}

// newObserver builds and starts the telemetry described by cfg. The
// sampler takes its baseline immediately (at the engine's current
// time, normally 0) and ticks until horizon; the tracer is attached
// to the network and controller. On error, any trace file already
// created is closed and removed from the observer's ownership.
func newObserver(cfg Config, e *sim.Engine, net *fabric.Network,
	ctrl *core.Controller, fr *routing.FBFLY, inj *fault.Injector,
	prof *telemetry.EngineProfiler, flow *telemetry.FlowCollector,
	horizon sim.Time) (o *observer, err error) {
	if cfg.MetricsOut == "" && cfg.TraceOut == "" && cfg.HeatmapOut == "" &&
		cfg.HistOut == "" && cfg.Inspector == nil {
		return nil, nil
	}
	o = &observer{cfg: cfg, e: e, net: net, inj: inj, prof: prof, flow: flow}
	if flow != nil && cfg.Inspector != nil {
		o.flowChans = chanLabels(net)
	}
	defer func() {
		if err != nil && o.traceFile != nil {
			o.traceFile.Close()
		}
	}()
	if cfg.TraceOut != "" {
		f, ferr := os.Create(cfg.TraceOut)
		if ferr != nil {
			return nil, fmt.Errorf("epnet: creating trace output: %w", ferr)
		}
		o.traceFile = f
		o.tracer = telemetry.NewTracer(f)
		o.tracer.MetaProcessName(telemetry.PIDPackets, "packets")
		o.tracer.MetaProcessName(telemetry.PIDLinks, "links")
		for _, ch := range net.Channels() {
			o.tracer.MetaThreadName(telemetry.PIDLinks, ch.Index(), ch.MetricName())
		}
		net.Tracer = o.tracer
		if ctrl != nil {
			ctrl.Tracer = o.tracer
		}
		if inj != nil {
			o.tracer.MetaProcessName(telemetry.PIDFaults, "faults")
			inj.Tracer = o.tracer
		}
	}
	if cfg.HeatmapOut != "" || cfg.HistOut != "" {
		h, herr := telemetry.NewHeatmap(simTime(cfg.SampleInterval))
		if herr != nil {
			return nil, herr
		}
		for _, ch := range net.InterSwitchChannels() {
			l := ch.L
			h.AddRow(ch.Label(), l.BusyTime)
		}
		o.heatmap = h
		h.Start(e, horizon)
	}
	if cfg.MetricsOut != "" || cfg.Inspector != nil {
		reg := telemetry.NewRegistry()
		if err := reg.GaugeFunc("sim.events_processed",
			func() float64 { return float64(net.EventsProcessed()) }); err != nil {
			return nil, err
		}
		if err := reg.GaugeFunc("sim.pending_events",
			func() float64 { return float64(net.PendingEvents()) }); err != nil {
			return nil, err
		}
		if err := net.RegisterMetrics(reg); err != nil {
			return nil, err
		}
		if ctrl != nil {
			if err := ctrl.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		if fr != nil {
			if err := fr.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		if inj != nil {
			if err := inj.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		chans := make([]*link.Channel, 0, len(net.Channels()))
		for _, ch := range net.Channels() {
			chans = append(chans, ch.L)
		}
		o.measured = power.NewMeter(power.InfiniBandOptical(), chans)
		o.ideal = power.NewMeter(power.NewIdeal(net.Cfg.Ladder.Max()), chans)
		for _, m := range []*power.Meter{o.measured, o.ideal} {
			if err := m.RegisterMetrics(reg, e.Now); err != nil {
				return nil, err
			}
		}
		// Packet latency distribution, observed on the delivery path
		// for post-warmup packets. Delivery callbacks run on the shard
		// that owns the destination host, so each shard accumulates into
		// its own latShard; the view's refresh merges them with integer
		// adds just before every read, making the sampled series and the
		// rendered histogram independent of the shard count. The chained
		// OnDeliver keeps Run's own latency recorder working unchanged.
		parts := make([]latShard, net.NumShards())
		for i := range parts {
			parts[i].counts = make([]int64, len(latencyBucketsUs)+1)
		}
		merged := make([]int64, len(latencyBucketsUs)+1)
		refresh := func(h *telemetry.Histogram) {
			for i := range merged {
				merged[i] = 0
			}
			var n int64
			var sum sim.Time
			for s := range parts {
				for i, c := range parts[s].counts {
					merged[i] += c
				}
				sum += parts[s].sum
				n += parts[s].n
			}
			h.SetState(merged, sum.Microseconds(), n)
		}
		if _, err := reg.HistogramView("net.latency_us", latencyBucketsUs, refresh); err != nil {
			return nil, err
		}
		warmup := simTime(cfg.Warmup)
		prev := net.OnDeliver
		net.OnDeliver = func(p *fabric.Packet, now sim.Time) {
			if prev != nil {
				prev(p, now)
			}
			if p.Inject >= warmup {
				d := now - p.Inject
				sh := &parts[net.HostShard(p.Dst)]
				sh.counts[latBucket(d.Microseconds())]++
				sh.sum += d
				sh.n++
			}
		}
		o.reg = reg
		s, serr := telemetry.NewSampler(reg, simTime(cfg.SampleInterval))
		if serr != nil {
			return nil, serr
		}
		o.sampler = s
		if cfg.Inspector != nil {
			s.OnSample = o.publish
		}
		s.Start(e, horizon)
	}
	return o, nil
}

// publish renders the scrape body and the per-entity snapshot on the
// engine thread and hands copies to the inspector. Both documents are
// pure functions of simulation state, so repeated seeded runs publish
// byte-identical final documents. The engine profile, when profiling
// is on, rides along as a third document (wall-clock based, so not
// deterministic — it feeds /profile, nothing else).
func (o *observer) publish(now sim.Time) {
	o.promBuf.Reset()
	o.reg.WritePrometheus(&o.promBuf)
	o.snapBuf.Reset()
	json.NewEncoder(&o.snapBuf).Encode(o.snapshot(now))
	prom := make([]byte, o.promBuf.Len())
	copy(prom, o.promBuf.Bytes())
	snap := make([]byte, o.snapBuf.Len())
	copy(snap, o.snapBuf.Bytes())
	var prof []byte
	if o.prof != nil {
		// Sampler ticks run on the control plane at barriers, when every
		// shard is quiescent — the one safe instant to snapshot.
		o.profBuf.Reset()
		json.NewEncoder(&o.profBuf).Encode(newEngineProfile(o.prof.Snapshot()))
		prof = make([]byte, o.profBuf.Len())
		copy(prof, o.profBuf.Bytes())
	}
	var flows []byte
	if o.flow != nil {
		// Same quiescent instant; the live document carries no energy
		// join (per-channel energies exist only at the end of the run).
		o.flowBuf.Reset()
		json.NewEncoder(&o.flowBuf).Encode(newFlowTraceReport(o.flow.Snapshot(), o.flowChans, nil, nil))
		flows = make([]byte, o.flowBuf.Len())
		copy(flows, o.flowBuf.Bytes())
	}
	o.cfg.Inspector.publish(prom, snap, prof, flows)
}

// snapshot structures for the /snapshot JSON document. Field order is
// fixed by the struct definitions, entity order by wiring order, so
// the rendering is deterministic.
type snapLink struct {
	Link       string  `json:"link"`
	RateGbps   float64 `json:"rate_gbps"`
	State      string  `json:"state"`
	Util       float64 `json:"util"`
	QueueBytes int64   `json:"queue_bytes"`
	TxPackets  int64   `json:"tx_pkts"`
	Drops      int64   `json:"drops"`
	Failed     bool    `json:"failed,omitempty"`
}

type snapSwitch struct {
	ID         int   `json:"sw"`
	RoutedPkts int64 `json:"routed_pkts"`
	QueueBytes int64 `json:"queue_bytes"`
	Dead       bool  `json:"dead,omitempty"`
}

type snapOutage struct {
	Link    string  `json:"link"`
	SinceUs float64 `json:"since_us"`
	DownUs  float64 `json:"down_us"`
}

type snapshotDoc struct {
	TUs      float64      `json:"t_us"`
	Workload WorkloadKind `json:"workload"`
	Policy   PolicyKind   `json:"policy"`
	Seed     int64        `json:"seed"`
	Power    struct {
		Measured float64 `json:"measured"`
		Ideal    float64 `json:"ideal"`
	} `json:"power"`
	Links    []snapLink   `json:"links"`
	Switches []snapSwitch `json:"switches"`
	Outages  []snapOutage `json:"outages"`
}

// snapshot assembles the per-entity state document at sim time now.
func (o *observer) snapshot(now sim.Time) *snapshotDoc {
	doc := &snapshotDoc{
		TUs:      now.Microseconds(),
		Workload: o.cfg.Workload,
		Policy:   o.cfg.Policy,
		Seed:     o.cfg.Seed,
	}
	doc.Power.Measured = o.measured.Relative(now)
	doc.Power.Ideal = o.ideal.Relative(now)
	isc := o.net.InterSwitchChannels()
	doc.Links = make([]snapLink, 0, len(isc))
	for _, ch := range isc {
		doc.Links = append(doc.Links, snapLink{
			Link:       ch.Label(),
			RateGbps:   ch.L.Rate().GbpsF(),
			State:      ch.L.State(now).String(),
			Util:       ch.L.MeanUtilization(now),
			QueueBytes: o.net.Switches[ch.Src.ID].QueueBytes(ch.Src.Port),
			TxPackets:  ch.L.TotalPackets(),
			Drops:      ch.Drops(),
			Failed:     ch.Failed(),
		})
	}
	radix := o.net.T.Radix()
	doc.Switches = make([]snapSwitch, 0, len(o.net.Switches))
	for i, s := range o.net.Switches {
		var queued int64
		for p := 0; p < radix; p++ {
			queued += s.QueueBytes(p)
		}
		doc.Switches = append(doc.Switches, snapSwitch{
			ID:         i,
			RoutedPkts: s.RoutedPackets(),
			QueueBytes: queued,
			Dead:       o.net.SwitchDead(i),
		})
	}
	doc.Outages = []snapOutage{}
	if o.inj != nil {
		for _, out := range o.inj.Outages() {
			doc.Outages = append(doc.Outages, snapOutage{
				Link:    out.Link,
				SinceUs: out.Since.Microseconds(),
				DownUs:  (now - out.Since).Microseconds(),
			})
		}
	}
	return doc
}

// finish takes the final (possibly partial-interval) samples, writes
// the metrics/heatmap/histogram files, publishes the final inspection
// documents, and terminates the trace stream. Safe on a nil observer
// and idempotent: Run calls it on error paths too, so a canceled run
// still flushes and closes everything it opened, and write failures
// (including a tracer that latched an earlier disk-full error) are
// all reported.
func (o *observer) finish(now sim.Time) error {
	if o == nil || o.done {
		return nil
	}
	o.done = true
	var errs []error
	if o.sampler != nil {
		o.sampler.Finish(now)
		if o.cfg.MetricsOut != "" {
			if err := writeFile(o.cfg.MetricsOut, o.writeSeries); err != nil {
				errs = append(errs, fmt.Errorf("epnet: writing metrics: %w", err))
			}
		}
	}
	if o.heatmap != nil {
		o.heatmap.Finish(now)
		if o.cfg.HeatmapOut != "" {
			if err := writeFile(o.cfg.HeatmapOut, o.heatmap.WriteCSV); err != nil {
				errs = append(errs, fmt.Errorf("epnet: writing heatmap: %w", err))
			}
		}
		if o.cfg.HistOut != "" {
			hist, err := o.heatmap.UtilizationHistogram(utilBuckets)
			if err == nil {
				err = writeFile(o.cfg.HistOut, hist.WriteCSV)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("epnet: writing utilization histogram: %w", err))
			}
		}
	}
	if o.tracer != nil {
		terr := o.tracer.Close()
		if cerr := o.traceFile.Close(); terr == nil {
			terr = cerr
		}
		if terr != nil {
			errs = append(errs, fmt.Errorf("epnet: writing trace: %w", terr))
		}
	}
	return errors.Join(errs...)
}

// writeFile creates path and streams write into it, reporting create,
// write and close errors alike.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeSeries streams the sampled series in the format implied by the
// output path's extension.
func (o *observer) writeSeries(w io.Writer) error {
	if strings.HasSuffix(o.cfg.MetricsOut, ".jsonl") {
		return o.sampler.WriteJSONL(w)
	}
	return o.sampler.WriteCSV(w)
}
