package scenario

import (
	"math"
	"sort"
	"time"

	"epnet/internal/link"
	"epnet/internal/sim"
	"epnet/internal/traffic"
)

// simTime converts a wall-clock duration to simulator picoseconds.
func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// Source is a streaming traffic generator bound to a time window: Run
// schedules injections on e against tgt from the current engine time
// (the phase driver invokes it exactly at from) and generates no new
// messages after until. Nothing is materialized — sources are the
// same recursive-closure generators the flag path uses, so the
// 0 allocs/packet property of the fabric hot path is untouched.
type Source interface {
	// Name identifies the stream in reports.
	Name() string
	// Run starts the stream for the window [from, until). The engine's
	// clock is at from when Run is invoked.
	Run(e *sim.Engine, tgt traffic.Target, from, until sim.Time)
}

// maker builds one streaming generator at a fixed load (0 = the
// workload's default) from a seed.
type maker func(load float64, seed int64) traffic.Workload

// makers mirrors the run-level workload constructors exactly — same
// message sizes, default loads, and seeds — so a scenario phase
// offering a workload is indistinguishable from the flag-configured
// run of that workload.
var makers = map[string]maker{
	"uniform": func(load float64, seed int64) traffic.Workload {
		u := traffic.DefaultUniform(seed)
		if load > 0 {
			u.Load = load
		}
		return u
	},
	"search": func(load float64, seed int64) traffic.Workload {
		tl := traffic.Search(seed)
		if load > 0 {
			tl.Load = load
		}
		return tl
	},
	"advert": func(load float64, seed int64) traffic.Workload {
		tl := traffic.Advert(seed)
		if load > 0 {
			tl.Load = load
		}
		return tl
	},
	"permutation": func(load float64, seed int64) traffic.Workload {
		if load == 0 {
			load = 0.1
		}
		return &traffic.Permutation{MsgBytes: 64 * 1024, Load: load, LineRate: link.Rate40G, Seed: seed}
	},
	"tornado": func(load float64, seed int64) traffic.Workload {
		if load == 0 {
			load = 0.1
		}
		return &traffic.Tornado{MsgBytes: 64 * 1024, Load: load, LineRate: link.Rate40G, Seed: seed}
	},
	"hotspot": func(load float64, seed int64) traffic.Workload {
		if load == 0 {
			load = 0.05
		}
		return &traffic.Hotspot{MsgBytes: 64 * 1024, Load: load, LineRate: link.Rate40G, Hot: 4, Seed: seed}
	},
	"incast": func(load float64, seed int64) traffic.Workload {
		if load == 0 {
			load = 0.5
		}
		return &traffic.Incast{MsgBytes: 32 * 1024, Fanin: 16, Load: load, LineRate: link.Rate40G, Seed: seed}
	},
	"migration": func(load float64, seed int64) traffic.Workload {
		if load == 0 {
			load = 0.3
		}
		return &traffic.Migration{TotalBytes: 8 * 1024 * 1024, ChunkBytes: 64 * 1024,
			Load: load, LineRate: link.Rate40G, Seed: seed}
	},
}

// Kinds lists the workload kinds a scenario may offer, sorted. Trace
// replay is deliberately absent: scenarios are self-contained
// documents, and a trace file is neither.
func Kinds() []string {
	out := make([]string, 0, len(makers))
	for k := range makers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KnownKind reports whether kind names a scenario workload.
func KnownKind(kind string) bool {
	_, ok := makers[kind]
	return ok
}

// NewSource builds the streaming source for one traffic spec. The
// spec must have passed Validate.
func NewSource(spec Traffic, seed int64) (Source, error) {
	mk, ok := makers[spec.Workload]
	if !ok {
		return nil, errf("workload", "unknown workload %q", spec.Workload)
	}
	if sh := spec.Shape; sh != nil && sh.Kind != "" && sh.Kind != ShapeFlat {
		return &paced{kind: spec.Workload, shape: *sh, peak: spec.Load, seed: seed, mk: mk}, nil
	}
	return steady{w: mk(spec.Load, seed)}, nil
}

// FromWorkload adapts a prebuilt generator (e.g. trace replay) into a
// Source. The generator's own horizon handling bounds the window.
func FromWorkload(w traffic.Workload) Source { return steady{w: w} }

// steady runs one generator flat across its window. Generators
// schedule everything relative to the invoking engine time, so
// starting one mid-run simply begins its warm-in phase there.
type steady struct{ w traffic.Workload }

func (s steady) Name() string { return s.w.Name() }

func (s steady) Run(e *sim.Engine, tgt traffic.Target, from, until sim.Time) {
	s.w.Start(e, tgt, until)
}

// paced modulates a generator's load across its window as a staircase:
// the window is cut into shape.Steps equal slices and each slice runs
// a fresh generator at the shape's load at the slice midpoint. Slice
// starts are control-engine events, so sharded runs see identical
// stripes; each slice is an ordinary streaming generator, so the
// packet path stays allocation-free.
type paced struct {
	kind  string
	shape Shape
	peak  float64
	seed  int64
	mk    maker
}

func (p *paced) Name() string { return p.kind + "/" + p.shape.Kind }

func (p *paced) Run(e *sim.Engine, tgt traffic.Target, from, until sim.Time) {
	steps := p.shape.Steps
	if steps <= 0 {
		steps = DefaultShapeSteps
	}
	span := until - from
	if span <= 0 {
		return
	}
	for i := 0; i < steps; i++ {
		s0 := from + span*sim.Time(i)/sim.Time(steps)
		s1 := from + span*sim.Time(i+1)/sim.Time(steps)
		load := p.loadAt(float64(s0-from)/2+float64(s1-from)/2, float64(span))
		if load < traffic.MinLoad {
			continue
		}
		w := p.mk(load, sliceSeed(p.seed, i))
		if i == 0 {
			// Run is invoked at from; the first slice starts inline.
			w.Start(e, tgt, s1)
			continue
		}
		end := s1
		e.At(s0, func(now sim.Time) { w.Start(e, tgt, end) })
	}
}

// loadAt evaluates the shape at offset t into a window of length span
// (both in picoseconds, as floats).
func (p *paced) loadAt(t, span float64) float64 {
	min := p.shape.MinLoad
	switch p.shape.Kind {
	case ShapeRamp:
		return min + (p.peak-min)*(t/span)
	case ShapeDiurnal:
		period := float64(simTime(p.shape.Period.D()))
		if period <= 0 {
			period = span
		}
		phase := math.Mod(t, period) / period
		// Raised cosine: trough at the window edges, peak mid-period.
		return min + (p.peak-min)*(0.5-0.5*math.Cos(2*math.Pi*phase))
	default:
		return p.peak
	}
}
