package epnet

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"epnet/internal/fabric"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// This file is the public face of engine self-profiling (Config.Profile
// / Config.ProfileOut): mirror types for the internal profiler snapshot
// with stable JSON tags, the human-readable critical-path report behind
// `epsim -profile`, the CSV exporter, and the Partition helper behind
// `epsim -v`'s startup line. The internal/telemetry types cannot appear
// in the public API (established epnet idiom — cf. FaultStats,
// LinkAttribution), so Result.Profile carries these mirrors.

// ShardProfile is one shard's aggregate of the engine self-profile.
// Wall-clock fields are real time the run spent; "Sim" fields are
// simulated time (window widths and advances).
type ShardProfile struct {
	Shard int `json:"shard"`

	// BusyWall is wall time executing this shard's windows; BarrierWait
	// is time spent parked at round barriers waiting for the laggard;
	// IdleWall is time covered by rounds in which the shard had no work
	// and fast-forwarded.
	BusyWall    time.Duration `json:"busy_wall_ns"`
	BarrierWait time.Duration `json:"barrier_wait_ns"`
	IdleWall    time.Duration `json:"idle_wall_ns"`

	// Events executed by this shard's engine.
	Events uint64 `json:"events"`

	// BusyRounds ran a window; FastForwardRounds jumped the clock
	// analytically; LaggardRounds are busy rounds in which this shard
	// had the slowest window and therefore set the barrier —
	// LaggardShare is that count over all laggard-bearing rounds.
	BusyRounds        int64   `json:"busy_rounds"`
	FastForwardRounds int64   `json:"fast_forward_rounds"`
	LaggardRounds     int64   `json:"laggard_rounds"`
	LaggardShare      float64 `json:"laggard_share"`

	// GrantedSim is the simulated window width the coordinator granted;
	// UsedSim the advance up to the last event actually executed.
	// WindowEfficiency = UsedSim / GrantedSim. FastForwardSim is the
	// advance taken analytically (no events).
	GrantedSim       time.Duration `json:"granted_sim_ns"`
	UsedSim          time.Duration `json:"used_sim_ns"`
	FastForwardSim   time.Duration `json:"fast_forward_sim_ns"`
	WindowEfficiency float64       `json:"window_efficiency"`

	// PeakPending is the event-queue depth high-water mark, sampled at
	// barriers after the cross-shard exchange.
	PeakPending int64 `json:"peak_pending"`

	// StagedOutEvents / StagedOutBytes total the cross-shard traffic
	// this shard staged toward all others (row sum of the exchange
	// matrices).
	StagedOutEvents int64 `json:"staged_out_events"`
	StagedOutBytes  int64 `json:"staged_out_bytes"`
}

// EngineProfile is the engine's self-profile over a run: where the wall
// time went (per-shard busy / barrier-wait / idle, control plane,
// exchange drains), how wide the conservative windows were versus how
// much of them was used, and which shards set the barriers. It contains
// wall-clock measurements and is therefore not deterministic; every
// other Result field is unaffected by collecting it.
type EngineProfile struct {
	Shards []ShardProfile `json:"shards"`

	// Rounds is the number of coordinator rounds (0 for a serial run).
	Rounds int64 `json:"rounds"`

	// Wall is wall time inside the coordinator's run calls.
	// CriticalPath sums, over rounds, the slowest busy window — the
	// engine-side lower bound on wall time. BarrierOverhead is the
	// fraction of Wall not covered by CriticalPath: coordination cost
	// (handoffs, drains, control plane) rather than laggard work.
	Wall            time.Duration `json:"wall_ns"`
	CriticalPath    time.Duration `json:"critical_path_ns"`
	BarrierOverhead float64       `json:"barrier_overhead"`

	// DrainWall is wall time draining staged cross-shard events at
	// barriers; CtrlWall and CtrlEvents cover the control engine
	// (injection, controller epochs, faults, telemetry sampling).
	DrainWall  time.Duration `json:"drain_wall_ns"`
	CtrlWall   time.Duration `json:"ctrl_wall_ns"`
	CtrlEvents uint64        `json:"ctrl_events"`

	// WindowEfficiency is the aggregate used/granted window fraction.
	WindowEfficiency float64 `json:"window_efficiency"`

	// ExchangeEvents[src][dst] / ExchangeBytes[src][dst]: the shard x
	// shard traffic matrix of staged events drained from src onto dst,
	// and the packet payload bytes among them (credit returns carry
	// none).
	ExchangeEvents [][]int64 `json:"exchange_events,omitempty"`
	ExchangeBytes  [][]int64 `json:"exchange_bytes,omitempty"`

	// Partition quality: directed inter-switch channels crossing a
	// shard boundary out of the total, and the finite range of the
	// per-pair lookahead matrix.
	CutChannels   int           `json:"cut_channels"`
	TotalChannels int           `json:"total_channels"`
	LookaheadMin  time.Duration `json:"lookahead_min_ns"`
	LookaheadMax  time.Duration `json:"lookahead_max_ns"`
}

// newEngineProfile mirrors an internal profiler snapshot into the
// public type.
func newEngineProfile(p *telemetry.EngineProfile) *EngineProfile {
	out := &EngineProfile{
		Shards:           make([]ShardProfile, len(p.Shards)),
		Rounds:           p.Rounds,
		Wall:             time.Duration(p.WallNs),
		CriticalPath:     time.Duration(p.CriticalPathNs),
		BarrierOverhead:  p.BarrierOverhead(),
		DrainWall:        time.Duration(p.DrainWallNs),
		CtrlWall:         time.Duration(p.CtrlWallNs),
		CtrlEvents:       p.CtrlEvents,
		WindowEfficiency: p.WindowEfficiency(),
		ExchangeEvents:   p.ExchangeEvents,
		ExchangeBytes:    p.ExchangeBytes,
		CutChannels:      p.CutChannels,
		TotalChannels:    p.TotalChannels,
		LookaheadMin:     toDuration(sim.Time(p.LookaheadMin)),
		LookaheadMax:     toDuration(sim.Time(p.LookaheadMax)),
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		sp := ShardProfile{
			Shard:             s.Shard,
			BusyWall:          time.Duration(s.BusyWallNs),
			BarrierWait:       time.Duration(s.BarrierWaitNs),
			IdleWall:          time.Duration(s.IdleWallNs),
			Events:            s.Events,
			BusyRounds:        s.BusyRounds,
			FastForwardRounds: s.FastForwardRounds,
			LaggardRounds:     s.LaggardRounds,
			LaggardShare:      p.LaggardShare(s.Shard),
			GrantedSim:        toDuration(sim.Time(s.GrantedPs)),
			UsedSim:           toDuration(sim.Time(s.UsedPs)),
			FastForwardSim:    toDuration(sim.Time(s.FastForwardPs)),
			WindowEfficiency:  s.WindowEfficiency(),
			PeakPending:       s.PeakPending,
		}
		for _, v := range p.ExchangeEvents[i] {
			sp.StagedOutEvents += v
		}
		for _, v := range p.ExchangeBytes[i] {
			sp.StagedOutBytes += v
		}
		out.Shards[i] = sp
	}
	return out
}

// TotalEvents returns data-plane events executed across all shards.
func (p *EngineProfile) TotalEvents() uint64 {
	var n uint64
	for i := range p.Shards {
		n += p.Shards[i].Events
	}
	return n
}

// ExchangeTotals returns total staged cross-shard events and payload
// bytes.
func (p *EngineProfile) ExchangeTotals() (events, bytes int64) {
	for i := range p.Shards {
		events += p.Shards[i].StagedOutEvents
		bytes += p.Shards[i].StagedOutBytes
	}
	return events, bytes
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// WriteReport writes the human-readable critical-path report: the
// whole-run summary, the per-shard table, and the ranked laggard table
// answering "which shard set the barrier, how often, and at what
// cost". This is what `epsim -profile` prints.
func (p *EngineProfile) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nsh := len(p.Shards)
	fmt.Fprintf(bw, "engine profile: %d shard(s), %d round(s), wall %v\n",
		nsh, p.Rounds, p.Wall.Round(time.Microsecond))
	fmt.Fprintf(bw, "  critical path %v (barrier overhead %s of wall)\n",
		p.CriticalPath.Round(time.Microsecond), pct(p.BarrierOverhead))
	fmt.Fprintf(bw, "  control plane %v (%d events), exchange drain %v\n",
		p.CtrlWall.Round(time.Microsecond), p.CtrlEvents,
		p.DrainWall.Round(time.Microsecond))
	if p.TotalChannels > 0 {
		fmt.Fprintf(bw, "  partition: %d/%d inter-switch channels cross shards (%s), lookahead %v..%v\n",
			p.CutChannels, p.TotalChannels,
			pct(float64(p.CutChannels)/float64(p.TotalChannels)),
			p.LookaheadMin, p.LookaheadMax)
	}
	if nsh > 1 {
		fmt.Fprintf(bw, "  window efficiency %s (used/granted simulated width)\n",
			pct(p.WindowEfficiency))
		ev, by := p.ExchangeTotals()
		fmt.Fprintf(bw, "  cross-shard exchange: %d events, %d payload bytes\n", ev, by)
	}

	fmt.Fprintf(bw, "%-6s %12s %12s %12s %12s %8s %8s %8s %7s %9s\n",
		"shard", "busy", "wait", "idle", "events",
		"rounds", "ff", "laggard", "weff", "peak-q")
	for i := range p.Shards {
		s := &p.Shards[i]
		fmt.Fprintf(bw, "%-6d %12v %12v %12v %12d %8d %8d %8d %7s %9d\n",
			s.Shard,
			s.BusyWall.Round(time.Microsecond),
			s.BarrierWait.Round(time.Microsecond),
			s.IdleWall.Round(time.Microsecond),
			s.Events, s.BusyRounds, s.FastForwardRounds, s.LaggardRounds,
			pct(s.WindowEfficiency), s.PeakPending)
	}

	// Ranked laggard table: who set the barrier, and what everyone else
	// paid waiting for them.
	order := make([]int, nsh)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &p.Shards[order[a]], &p.Shards[order[b]]
		if sa.LaggardRounds != sb.LaggardRounds {
			return sa.LaggardRounds > sb.LaggardRounds
		}
		return order[a] < order[b]
	})
	printed := false
	for _, i := range order {
		s := &p.Shards[i]
		if s.LaggardRounds == 0 {
			continue
		}
		if !printed {
			fmt.Fprintln(bw, "critical path (ranked):")
			printed = true
		}
		fmt.Fprintf(bw, "  shard %d set the barrier %s of rounds (%d), busy %v, staged out %d events\n",
			s.Shard, pct(s.LaggardShare), s.LaggardRounds,
			s.BusyWall.Round(time.Microsecond), s.StagedOutEvents)
	}
	return bw.Flush()
}

// WriteCSV writes the profile as CSV: '#'-prefixed whole-run summary
// lines, then one row per shard.
func (p *EngineProfile) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# rounds=%d wall_ns=%d critical_path_ns=%d barrier_overhead=%.6f\n",
		p.Rounds, int64(p.Wall), int64(p.CriticalPath), p.BarrierOverhead)
	fmt.Fprintf(bw, "# drain_wall_ns=%d ctrl_wall_ns=%d ctrl_events=%d window_efficiency=%.6f\n",
		int64(p.DrainWall), int64(p.CtrlWall), p.CtrlEvents, p.WindowEfficiency)
	fmt.Fprintf(bw, "# cut_channels=%d total_channels=%d lookahead_min_ns=%d lookahead_max_ns=%d\n",
		p.CutChannels, p.TotalChannels, int64(p.LookaheadMin), int64(p.LookaheadMax))
	fmt.Fprintln(bw, "shard,busy_wall_ns,barrier_wait_ns,idle_wall_ns,events,"+
		"busy_rounds,fast_forward_rounds,laggard_rounds,laggard_share,"+
		"granted_sim_ns,used_sim_ns,fast_forward_sim_ns,window_efficiency,"+
		"peak_pending,staged_out_events,staged_out_bytes")
	for i := range p.Shards {
		s := &p.Shards[i]
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%.6f,%d,%d,%d\n",
			s.Shard, int64(s.BusyWall), int64(s.BarrierWait), int64(s.IdleWall),
			s.Events, s.BusyRounds, s.FastForwardRounds, s.LaggardRounds,
			s.LaggardShare, int64(s.GrantedSim), int64(s.UsedSim),
			int64(s.FastForwardSim), s.WindowEfficiency,
			s.PeakPending, s.StagedOutEvents, s.StagedOutBytes)
	}
	return bw.Flush()
}

// PartitionInfo describes the shard partition a configuration would
// run with, without running it: how the switches split, how many
// channels the cut crosses, and how tightly the shards are coupled.
type PartitionInfo struct {
	Shards        int           `json:"shards"`
	CutChannels   int           `json:"cut_channels"`
	TotalChannels int           `json:"total_channels"`
	LookaheadMin  time.Duration `json:"lookahead_min_ns"`
	LookaheadMax  time.Duration `json:"lookahead_max_ns"`

	// Lookahead is the closed per-shard-pair lookahead matrix
	// ([src][dst]); -1 marks an unreachable pair. Nil for serial runs.
	Lookahead [][]time.Duration `json:"lookahead,omitempty"`
}

// CutFraction returns CutChannels / TotalChannels (0 when serial).
func (p PartitionInfo) CutFraction() float64 {
	if p.TotalChannels == 0 {
		return 0
	}
	return float64(p.CutChannels) / float64(p.TotalChannels)
}

// String renders the one-line summary `epsim -v` prints at startup.
func (p PartitionInfo) String() string {
	if p.Shards <= 1 {
		return "shards=1 (serial engine)"
	}
	return fmt.Sprintf("shards=%d cut=%d/%d inter-switch channels (%s) lookahead=%v..%v",
		p.Shards, p.CutChannels, p.TotalChannels, pct(p.CutFraction()),
		p.LookaheadMin, p.LookaheadMax)
}

// Partition builds the configuration's network far enough to report its
// shard partition and lookahead matrix, then discards it. It is cheap
// relative to a run (topology wiring only, no simulation) and powers
// the `epsim -v` startup line.
func Partition(cfg Config) (PartitionInfo, error) {
	if err := cfg.Validate(); err != nil {
		return PartitionInfo{}, err
	}
	e := sim.New()
	t, router, _, err := buildTopology(cfg)
	if err != nil {
		return PartitionInfo{}, err
	}
	fcfg := fabric.DefaultConfig()
	fcfg.MaxPacket = cfg.MaxPacket
	fcfg.Seed = cfg.Seed
	fcfg.Shards = cfg.Shards
	net, err := fabric.New(e, t, router, fcfg)
	if err != nil {
		return PartitionInfo{}, err
	}
	defer net.Close()
	info := PartitionInfo{Shards: net.NumShards()}
	g := net.Sharding()
	if g == nil {
		return info, nil
	}
	info.CutChannels, info.TotalChannels = g.CutQuality()
	lo, hi := g.LookaheadRange()
	info.LookaheadMin, info.LookaheadMax = toDuration(lo), toDuration(hi)
	// Mirror the lookahead matrix; entries at or beyond the engine's
	// "effectively infinite" bound mark unreachable pairs.
	const unreachable = sim.Time(math.MaxInt64 / 8)
	m := g.LookaheadMatrix()
	info.Lookahead = make([][]time.Duration, len(m))
	for i, row := range m {
		info.Lookahead[i] = make([]time.Duration, len(row))
		for j, v := range row {
			if v >= unreachable {
				info.Lookahead[i][j] = -1
				continue
			}
			info.Lookahead[i][j] = toDuration(v)
		}
	}
	return info, nil
}
