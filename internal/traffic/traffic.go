// Package traffic generates the workloads of the paper's evaluation
// (§4.1): Uniform (each host repeatedly sends a 512 KB message to a new
// random destination) and two production-datacenter-like traces, Search
// and Advert.
//
// The production traces themselves are proprietary; the paper describes
// their load-bearing properties — "very bursty at a variety of
// timescales, yet exhibit low average network utilization of 5-25%",
// with substantial distributed-file-system traffic whose read/write mix
// makes channel usage asymmetric. The TraceLike generator reproduces
// those properties with heavy-tailed (truncated Pareto) think times and
// response sizes, a client/server request-response structure that loads
// the two directions of server links asymmetrically, and background
// file-system block shuffles. See DESIGN.md for the substitution notes.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"epnet/internal/link"
	"epnet/internal/sim"
)

// Target is where workloads inject messages; *fabric.Network satisfies
// it.
type Target interface {
	NumHosts() int
	InjectMessage(src, dst, size int)
}

// MinLoad is the smallest positive load a generator accepts. Gaps
// scale with 1/load: at MinLoad the longest (the tail of Search's
// block-shuffle gap) is about 3×10⁴ s, inside sim.Time's 9×10⁶ s,
// while at a load of 1e-11 it is 3×10⁹ s and overflows. The paper's
// loads are 5-25%.
const MinLoad = 1e-6

// Workload schedules message injections on an engine until a horizon.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// AvgUtil is the intended mean injection utilization per host,
	// as a fraction of line rate.
	AvgUtil() float64
	// Start schedules injections on e against tgt. No new messages are
	// generated after horizon (in-flight traffic may drain later).
	Start(e *sim.Engine, tgt Target, horizon sim.Time)
}

// Pareto is a truncated Pareto distribution on [Min, Max] with shape
// Alpha — the standard heavy-tail model for self-similar datacenter
// traffic (bursty across many timescales).
type Pareto struct {
	Alpha    float64
	Min, Max float64
}

// Validate rejects degenerate parameters.
func (p Pareto) Validate() error {
	if p.Alpha <= 0 || p.Alpha == 1 {
		return fmt.Errorf("traffic: pareto alpha must be > 0 and != 1, got %v", p.Alpha)
	}
	if p.Min <= 0 || p.Max <= p.Min {
		return fmt.Errorf("traffic: pareto needs 0 < min < max, got [%v,%v]", p.Min, p.Max)
	}
	return nil
}

// Mean returns the analytic mean of the truncated distribution.
func (p Pareto) Mean() float64 {
	z := 1 - math.Pow(p.Min/p.Max, p.Alpha)
	return p.Alpha / (p.Alpha - 1) * math.Pow(p.Min, p.Alpha) *
		(math.Pow(p.Min, 1-p.Alpha) - math.Pow(p.Max, 1-p.Alpha)) / z
}

// Sample draws one value using inverse-CDF sampling.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	z := 1 - math.Pow(p.Min/p.Max, p.Alpha)
	u := rng.Float64()
	return p.Min / math.Pow(1-u*z, 1/p.Alpha)
}

// ScaleToMean returns a copy of p whose Min and Max are scaled so the
// mean equals m (shape preserved).
func (p Pareto) ScaleToMean(m float64) Pareto {
	cur := p.Mean()
	s := m / cur
	return Pareto{Alpha: p.Alpha, Min: p.Min * s, Max: p.Max * s}
}

// hostSeed derives the seed of host (or stream) h's private stream
// from a generator seed. It is the one per-host derivation in this
// package: every per-host stream is hostRand(seed, h), a pure function
// of (seed, h), so a generator may create it whenever it is first read.
func hostSeed(seed int64, h int) int64 { return seed ^ int64(h)*0x2545F4914F6CDD1D }

// hostRand returns host h's private stream for a generator seed.
func hostRand(seed int64, h int) *rand.Rand { return rand.New(rand.NewSource(hostSeed(seed, h))) }

// Uniform is the paper's synthetic workload: every host repeatedly
// sends a MsgBytes message to a new uniformly random destination, with
// exponentially distributed gaps sized to offer Load of line rate.
type Uniform struct {
	MsgBytes int
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// DefaultUniform returns the §4.1 configuration: 512 KB messages at the
// 23% average utilization the paper reports for Uniform.
func DefaultUniform(seed int64) *Uniform {
	return &Uniform{MsgBytes: 512 * 1024, Load: 0.23, LineRate: link.Rate40G, Seed: seed}
}

// Name implements Workload.
func (u *Uniform) Name() string { return "Uniform" }

// AvgUtil implements Workload.
func (u *Uniform) AvgUtil() float64 { return u.Load }

// Start implements Workload. A host's own stream is first read in its
// first send, so it is seeded there: at low load most hosts of a large
// fabric never send before the horizon and never pay for a source. The
// stream is a pure function of (Seed, h), so the draws are the same as
// if it had been seeded here.
func (u *Uniform) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	meanGapSec := float64(u.MsgBytes*8) / (u.Load * float64(u.LineRate))
	rng := rand.New(rand.NewSource(u.Seed))
	for h := 0; h < n; h++ {
		h := h
		var hrng *rand.Rand
		var send func(now sim.Time)
		send = func(now sim.Time) {
			if now > horizon {
				return
			}
			if hrng == nil {
				hrng = hostRand(u.Seed, h)
			}
			dst := hrng.Intn(n)
			if dst == h {
				dst = (dst + 1) % n
			}
			tgt.InjectMessage(h, dst, u.MsgBytes)
			gap := sim.Time(hrng.ExpFloat64() * meanGapSec * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, send)
		}
		// Random start phase to avoid synchronized injection. Scheduled
		// relative to the current clock so generators can start mid-run.
		e.After(sim.Time(rng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), send)
	}
}

// TraceLike is the synthetic stand-in for the production traces. Hosts
// are partitioned into servers (file/index servers) and clients. Clients
// run a heavy-tailed think/exchange loop: a Pareto think time, then a
// request to a random server, which responds after ServerDelay with a
// Pareto-sized transfer (the read-heavy direction). Independently, every
// host occasionally ships a large file-system block to a random host
// (replication / shuffle traffic). The paper's trace properties this
// preserves: low average utilization, burstiness across timescales
// (Pareto tails), randomized placement, and asymmetric channel usage.
type TraceLike struct {
	Label       string
	Load        float64 // mean injection utilization target
	LineRate    link.Rate
	ServerFrac  float64 // fraction of hosts acting as servers
	ReqBytes    int     // client request size
	Resp        Pareto  // server response size (bytes)
	Think       Pareto  // client think-time shape (rescaled for Load)
	ServerDelay sim.Time
	ShuffleFrac float64 // fraction of bytes carried by block shuffles
	ShuffleB    Pareto  // shuffle block size (bytes)
	Seed        int64
}

// Search returns the web-search-like trace: ~6% average utilization
// (the paper's measured average for Search), read-heavy responses from
// a large server pool.
func Search(seed int64) *TraceLike {
	return &TraceLike{
		Label:       "Search",
		Load:        0.06,
		LineRate:    link.Rate40G,
		ServerFrac:  0.25,
		ReqBytes:    4 * 1024,
		Resp:        Pareto{Alpha: 1.3, Min: 64 * 1024, Max: 2 * 1024 * 1024},
		Think:       Pareto{Alpha: 1.6, Min: 1, Max: 200}, // shape only; rescaled
		ServerDelay: 25 * sim.Microsecond,
		ShuffleFrac: 0.35,
		ShuffleB:    Pareto{Alpha: 1.3, Min: 256 * 1024, Max: 4 * 1024 * 1024},
		Seed:        seed,
	}
}

// Advert returns the advertising-service-like trace: ~5% average
// utilization, smaller responses, heavier file-system share.
func Advert(seed int64) *TraceLike {
	return &TraceLike{
		Label:       "Advert",
		Load:        0.05,
		LineRate:    link.Rate40G,
		ServerFrac:  0.15,
		ReqBytes:    2 * 1024,
		Resp:        Pareto{Alpha: 1.4, Min: 16 * 1024, Max: 512 * 1024},
		Think:       Pareto{Alpha: 1.6, Min: 1, Max: 200},
		ServerDelay: 25 * sim.Microsecond,
		ShuffleFrac: 0.5,
		ShuffleB:    Pareto{Alpha: 1.3, Min: 256 * 1024, Max: 4 * 1024 * 1024},
		Seed:        seed,
	}
}

// Name implements Workload.
func (t *TraceLike) Name() string { return t.Label }

// AvgUtil implements Workload.
func (t *TraceLike) AvgUtil() float64 { return t.Load }

// Validate checks distribution parameters.
func (t *TraceLike) Validate() error {
	if t.Load <= 0 || t.Load >= 1 {
		return fmt.Errorf("traffic: load %v out of (0,1)", t.Load)
	}
	if t.ServerFrac <= 0 || t.ServerFrac >= 1 {
		return fmt.Errorf("traffic: server fraction %v out of (0,1)", t.ServerFrac)
	}
	if t.ShuffleFrac < 0 || t.ShuffleFrac >= 1 {
		return fmt.Errorf("traffic: shuffle fraction %v out of [0,1)", t.ShuffleFrac)
	}
	if t.ReqBytes <= 0 {
		return fmt.Errorf("traffic: request bytes %d", t.ReqBytes)
	}
	for _, p := range []Pareto{t.Resp, t.Think, t.ShuffleB} {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Start implements Workload.
func (t *TraceLike) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n := tgt.NumHosts()
	nServers := int(float64(n) * t.ServerFrac)
	if nServers < 1 {
		nServers = 1
	}
	if nServers >= n {
		nServers = n - 1
	}
	// Randomized placement (§4.1: "application placement has been
	// randomized across the cluster").
	rng := rand.New(rand.NewSource(t.Seed))
	perm := rng.Perm(n)
	servers := perm[:nServers]
	clients := perm[nServers:]

	// Byte budget: total injected bytes/sec across the cluster.
	totalBps := t.Load * float64(t.LineRate) / 8 * float64(n)
	exchangeBytes := float64(t.ReqBytes) + t.Resp.Mean()
	exchangeBps := totalBps * (1 - t.ShuffleFrac)
	perClientExchangesPerSec := exchangeBps / exchangeBytes / float64(len(clients))
	think := t.Think.ScaleToMean(1 / perClientExchangesPerSec) // seconds

	// Client request/response loops.
	for _, c := range clients {
		c := c
		crng := hostRand(t.Seed, c)
		var loop func(now sim.Time)
		loop = func(now sim.Time) {
			if now > horizon {
				return
			}
			srv := servers[crng.Intn(len(servers))]
			tgt.InjectMessage(c, srv, t.ReqBytes)
			resp := int(t.Resp.Sample(crng))
			e.After(t.ServerDelay, func(rnow sim.Time) {
				if rnow > horizon {
					return
				}
				tgt.InjectMessage(srv, c, resp)
			})
			gap := sim.Time(think.Sample(crng) * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, loop)
		}
		start := sim.Time(crng.Float64() * think.Mean() * float64(sim.Second))
		e.After(start, loop)
	}

	if t.ShuffleFrac == 0 {
		return
	}
	shuffleBps := totalBps * t.ShuffleFrac
	perHostShufflesPerSec := shuffleBps / t.ShuffleB.Mean() / float64(n)
	shuffleGap := t.Think.ScaleToMean(1 / perHostShufflesPerSec) // seconds

	// Background block shuffles from every host.
	for h := 0; h < n; h++ {
		h := h
		hrng := hostRand(t.Seed^0x5DEECE66D, h)
		var loop func(now sim.Time)
		loop = func(now sim.Time) {
			if now > horizon {
				return
			}
			dst := hrng.Intn(n)
			if dst == h {
				dst = (dst + 1) % n
			}
			tgt.InjectMessage(h, dst, int(t.ShuffleB.Sample(hrng)))
			gap := sim.Time(shuffleGap.Sample(hrng) * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, loop)
		}
		start := sim.Time(hrng.Float64() * shuffleGap.Mean() * float64(sim.Second))
		e.After(start, loop)
	}
}

// Permutation sends steady streams along a fixed random permutation —
// a classic adversarial pattern for adaptive routing ablations.
type Permutation struct {
	MsgBytes int
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// Name implements Workload.
func (p *Permutation) Name() string { return "Permutation" }

// AvgUtil implements Workload.
func (p *Permutation) AvgUtil() float64 { return p.Load }

// Start implements Workload.
func (p *Permutation) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	rng := rand.New(rand.NewSource(p.Seed))
	perm := rng.Perm(n)
	meanGapSec := float64(p.MsgBytes*8) / (p.Load * float64(p.LineRate))
	for h := 0; h < n; h++ {
		h := h
		dst := perm[h]
		if dst == h {
			dst = (dst + 1) % n
		}
		hrng := hostRand(p.Seed, h)
		var send func(now sim.Time)
		send = func(now sim.Time) {
			if now > horizon {
				return
			}
			tgt.InjectMessage(h, dst, p.MsgBytes)
			gap := sim.Time(hrng.ExpFloat64() * meanGapSec * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, send)
		}
		e.After(sim.Time(hrng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), send)
	}
}

// Hotspot directs all hosts' traffic at a small set of hot destinations.
type Hotspot struct {
	MsgBytes int
	Load     float64
	LineRate link.Rate
	Hot      int // number of hot destinations
	Seed     int64
}

// Name implements Workload.
func (p *Hotspot) Name() string { return "Hotspot" }

// AvgUtil implements Workload.
func (p *Hotspot) AvgUtil() float64 { return p.Load }

// Start implements Workload.
func (p *Hotspot) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	hot := p.Hot
	if hot < 1 {
		hot = 1
	}
	meanGapSec := float64(p.MsgBytes*8) / (p.Load * float64(p.LineRate))
	for h := 0; h < n; h++ {
		h := h
		hrng := hostRand(p.Seed, h)
		var send func(now sim.Time)
		send = func(now sim.Time) {
			if now > horizon {
				return
			}
			dst := hrng.Intn(hot)
			if dst == h {
				dst = (dst + 1) % n
			}
			tgt.InjectMessage(h, dst, p.MsgBytes)
			gap := sim.Time(hrng.ExpFloat64() * meanGapSec * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, send)
		}
		e.After(sim.Time(hrng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), send)
	}
}

// Tornado sends every host's traffic to the host halfway around the
// cluster (dst = src + N/2 mod N) — the classic adversarial pattern for
// ring-based topologies, and therefore the stress case for the §5.1
// dynamic topologies that degrade FBFLY dimensions to rings.
type Tornado struct {
	MsgBytes int
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// Name implements Workload.
func (p *Tornado) Name() string { return "Tornado" }

// AvgUtil implements Workload.
func (p *Tornado) AvgUtil() float64 { return p.Load }

// Start implements Workload.
func (p *Tornado) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	meanGapSec := float64(p.MsgBytes*8) / (p.Load * float64(p.LineRate))
	for h := 0; h < n; h++ {
		h := h
		dst := (h + n/2) % n
		if dst == h {
			dst = (dst + 1) % n
		}
		hrng := hostRand(p.Seed, h)
		var send func(now sim.Time)
		send = func(now sim.Time) {
			if now > horizon {
				return
			}
			tgt.InjectMessage(h, dst, p.MsgBytes)
			gap := sim.Time(hrng.ExpFloat64() * meanGapSec * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, send)
		}
		e.After(sim.Time(hrng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), send)
	}
}
