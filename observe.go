package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/fault"
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

// collector names what feeds an output: Run builds the engine profiler
// and the flow collector, the observer the rest.
type collector uint8

const (
	fromProfiler collector = iota
	fromFlows
	fromSampler // the metric registry and its sampler
	fromHeatmap // the utilization heatmap
	fromTracer  // the Chrome trace stream
	numCollectors
)

// output declares one report a run produces: a file behind a Config
// path field, a live inspector document, or both. The outputs table is
// the one list of them. The observer's finish writes every configured
// file and its publish renders every document; the inspector serves
// them; Config.OutputPaths, which grid commands number, and the
// sample-interval default read the same rows.
type output struct {
	name    string                // names the report in write errors
	path    func(*Config) *string // Config path field; nil for a document only
	formats []string              // file formats by extension; formats[0] is the default
	from    collector

	endpoint string // inspector path; "" for a file only
	ctype    string // endpoint content type
	about    string // endpoint line on the inspector index
	idle     string // endpoint error until a document is published

	// file renders the report in one of formats. It is nil for a file
	// the run streams as it goes (the Chrome trace), which finish only
	// closes.
	file func(o *observer, format string, w io.Writer) error
	// doc renders the live inspector document at sim time now.
	doc func(o *observer, now sim.Time, w io.Writer) error
}

const noSample = "no sample published yet"

// The profile and flow documents snapshot their collectors on sampler
// ticks, which run on the control plane at barriers, when every shard
// is quiescent. The profile is wall-clock based, so it is the one
// document that is not deterministic.
var outputs = []output{{
	name:     "metrics",
	path:     func(c *Config) *string { return &c.MetricsOut },
	formats:  []string{"csv", "jsonl"},
	from:     fromSampler,
	endpoint: "/metrics",
	ctype:    "text/plain; version=0.0.4; charset=utf-8",
	about:    "Prometheus text-format scrape",
	idle:     noSample,
	file: func(o *observer, format string, w io.Writer) error {
		if format == "jsonl" {
			return o.sampler.WriteJSONL(w)
		}
		return o.sampler.WriteCSV(w)
	},
	doc: func(o *observer, _ sim.Time, w io.Writer) error { return o.reg.WritePrometheus(w) },
}, {
	name:     "snapshot",
	from:     fromSampler,
	endpoint: "/snapshot",
	ctype:    "application/json",
	about:    "JSON per-entity state (links, switches, outages, power)",
	idle:     noSample,
	doc:      func(o *observer, now sim.Time, w io.Writer) error { return json.NewEncoder(w).Encode(o.snapshot(now)) },
}, {
	name:    "trace",
	path:    func(c *Config) *string { return &c.TraceOut },
	formats: []string{"json"},
	from:    fromTracer,
}, {
	name:    "heatmap",
	path:    func(c *Config) *string { return &c.HeatmapOut },
	formats: []string{"csv"},
	from:    fromHeatmap,
	file:    func(o *observer, _ string, w io.Writer) error { return o.heatmap.WriteCSV(w) },
}, {
	name:    "utilization histogram",
	path:    func(c *Config) *string { return &c.HistOut },
	formats: []string{"csv"},
	from:    fromHeatmap,
	file: func(o *observer, _ string, w io.Writer) error {
		hist, err := o.heatmap.UtilizationHistogram(utilBuckets)
		if err != nil {
			return err
		}
		return hist.WriteCSV(w)
	},
}, {
	name:     "profile",
	path:     func(c *Config) *string { return &c.ProfileOut },
	formats:  []string{"json", "csv"},
	from:     fromProfiler,
	endpoint: "/profile",
	ctype:    "application/json",
	about:    "JSON engine self-profile (requires Config.Profile)",
	idle:     "no profile published (enable Config.Profile / epsim -profile)",
	file:     func(o *observer, format string, w io.Writer) error { return writeReport(w, format, o.res.Profile) },
	doc: func(o *observer, _ sim.Time, w io.Writer) error {
		return json.NewEncoder(w).Encode(newEngineProfile(o.prof.Snapshot()))
	},
}, {
	name:     "flow trace",
	path:     func(c *Config) *string { return &c.FlowsOut },
	formats:  []string{"json", "csv"},
	from:     fromFlows,
	endpoint: "/flows",
	ctype:    "application/json",
	about:    "JSON flow-trace decomposition (requires Config.FlowTrace)",
	idle:     "no flow trace published (enable Config.FlowTrace / epsim -flow-trace)",
	file:     func(o *observer, format string, w io.Writer) error { return writeReport(w, format, o.res.FlowTrace) },
	doc:      func(o *observer, _ sim.Time, w io.Writer) error { return json.NewEncoder(w).Encode(o.liveFlows()) },
}}

// active reports whether cfg asks for the output: its path is set, or
// it has an endpoint and the run publishes to an inspector.
func (out *output) active(cfg *Config) bool {
	return (out.path != nil && *out.path(cfg) != "") ||
		(out.endpoint != "" && cfg.Inspector != nil)
}

// ticks reports whether the output's collector samples at
// Config.SampleInterval.
func (out *output) ticks() bool { return out.from == fromSampler || out.from == fromHeatmap }

// format picks the file format for path: the one its extension names
// when the output supports it, the output's default otherwise.
func (out *output) format(path string) string {
	ext := strings.TrimPrefix(filepath.Ext(path), ".")
	if slices.Contains(out.formats, ext) {
		return ext
	}
	return out.formats[0]
}

// csvReport is a report with a CSV form besides its JSON one.
type csvReport interface{ WriteCSV(io.Writer) error }

// writeReport writes r as CSV when format is "csv", as indented JSON
// otherwise.
func writeReport(w io.Writer, format string, r csvReport) error {
	if format == "csv" {
		return r.WriteCSV(w)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// observer wires a run's outputs: it builds the collectors the
// configured rows of the outputs table read (the metrics sampler, the
// utilization heatmap, the Chrome trace stream), publishes the
// inspector documents at every sample, and writes every output file
// once, in finish. newObserver returns nil when no output is asked
// for, so Run pays nothing for observability it did not ask for.
type observer struct {
	cfg       Config
	e         *sim.Engine
	net       *fabric.Network
	inj       *fault.Injector
	prof      *telemetry.EngineProfiler
	flow      *telemetry.FlowCollector
	labels    []string // channel labels for flow reports, built on first use
	reg       *telemetry.Registry
	sampler   *telemetry.Sampler
	heatmap   *telemetry.Heatmap
	tracer    *telemetry.Tracer
	traceFile *os.File
	measured  *power.Meter
	ideal     *power.Meter
	has       [numCollectors]bool // which collectors feed this run's outputs
	res       *Result             // what finish writes the profile and flow files from
	buf       bytes.Buffer
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
	var need [numCollectors]bool
	for i := range outputs {
		need[outputs[i].from] = need[outputs[i].from] || outputs[i].active(&cfg)
	}
	if need == [numCollectors]bool{} {
		return nil, nil
	}
	o = &observer{cfg: cfg, e: e, net: net, inj: inj, prof: prof, flow: flow}
	o.has = need
	o.has[fromProfiler], o.has[fromFlows] = prof != nil, flow != nil
	defer func() {
		if err != nil && o.traceFile != nil {
			o.traceFile.Close()
		}
	}()
	if need[fromTracer] {
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
	if need[fromHeatmap] {
		h, herr := telemetry.NewHeatmap(simTime(cfg.SampleInterval))
		if herr != nil {
			return nil, herr
		}
		for _, ch := range net.InterSwitchChannels() {
			h.AddRow(ch.Label(), ch.L.BusyTime)
		}
		o.heatmap = h
		h.Start(e, horizon)
	}
	if need[fromSampler] {
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
		chans := linkChannels(net)
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

// publish renders every inspector document on the engine thread and
// hands the set to the inspector. All but the engine profile are pure
// functions of simulation state, so repeated seeded runs publish
// byte-identical final documents.
func (o *observer) publish(now sim.Time) {
	docs := make(map[string][]byte, len(outputs))
	for i := range outputs {
		out := &outputs[i]
		if out.endpoint == "" || !o.has[out.from] {
			continue
		}
		o.buf.Reset()
		out.doc(o, now, &o.buf)
		docs[out.endpoint] = bytes.Clone(o.buf.Bytes())
	}
	o.cfg.Inspector.publish(docs)
}

// liveFlows is the flow-trace report of the collector's current state.
// It carries no energy join: per-channel energies exist only in a
// collected Result.
func (o *observer) liveFlows() *FlowTraceReport {
	if o.labels == nil {
		o.labels = chanLabels(o.net)
	}
	return newFlowTraceReport(o.flow.Snapshot(), o.labels, nil, nil)
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

// finish takes the final (possibly partial-interval) samples, which
// publishes the final inspector documents, writes every configured
// output file and ends the trace stream. res is the Result of a run
// that completed: the profile and flow files are written from it, so
// the flow report keeps its energy join. A failed run passes nil and
// gets those files from the collectors' live state. Safe on a nil
// observer and idempotent: Run calls it on error paths too, so a
// canceled run still flushes and closes everything it opened, and
// write failures (including a tracer that latched an earlier disk-full
// error) are all reported.
func (o *observer) finish(now sim.Time, res *Result) error {
	if o == nil || o.done {
		return nil
	}
	o.done = true
	if o.sampler != nil {
		o.sampler.Finish(now)
	}
	if o.heatmap != nil {
		o.heatmap.Finish(now)
	}
	if res == nil {
		res = &Result{}
		if o.prof != nil {
			res.Profile = newEngineProfile(o.prof.Snapshot())
		}
		if o.flow != nil {
			res.FlowTrace = o.liveFlows()
		}
	}
	o.res = res
	var errs []error
	for i := range outputs {
		out := &outputs[i]
		if out.path == nil || *out.path(&o.cfg) == "" {
			continue
		}
		path := *out.path(&o.cfg)
		var err error
		if out.file == nil { // streamed during the run: end it
			err = o.tracer.Close()
			if cerr := o.traceFile.Close(); err == nil {
				err = cerr
			}
		} else if f, cerr := os.Create(path); cerr != nil {
			err = cerr
		} else {
			err = out.file(o, out.format(path), f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("epnet: writing %s: %w", out.name, err))
		}
	}
	return errors.Join(errs...)
}
