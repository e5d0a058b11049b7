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

// hostRand returns host (or stream) h's private stream for a generator
// seed. It is the one per-host derivation in this package: a pure
// function of (seed, h), so a generator may create the stream whenever
// it is first read.
func hostRand(seed int64, h int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(h)*0x2545F4914F6CDD1D))
}

// loop is the send loop every generator runs, once per stream: fire
// runs at offset first from the current clock, then again after each
// gap it returns, clamped to at least a nanosecond, until an event
// fires past horizon. fire injects and draws the next gap; it is all a
// generator adds of its own.
func loop(e *sim.Engine, horizon, first sim.Time, fire func() sim.Time) {
	var step func(now sim.Time)
	step = func(now sim.Time) {
		if now > horizon {
			return
		}
		gap := fire()
		if gap < sim.Nanosecond {
			gap = sim.Nanosecond
		}
		e.After(gap, step)
	}
	e.After(first, step)
}

// seconds converts a span in seconds to simulator time.
func seconds(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }

// expGap draws an exponentially distributed gap of mean meanSec seconds.
func expGap(rng *rand.Rand, meanSec float64) sim.Time { return seconds(rng.ExpFloat64() * meanSec) }

// startPhase draws a stream's random start phase, uniform over one mean
// gap, so that streams do not inject in lockstep.
func startPhase(rng *rand.Rand, meanSec float64) sim.Time {
	return sim.Time(rng.Int63n(int64(meanSec*float64(sim.Second)) + 1))
}

// notSelf maps a destination equal to its source onto the next host.
func notSelf(dst, src, n int) int {
	if dst == src {
		return (dst + 1) % n
	}
	return dst
}

// hostStreams runs one steady stream per host, the shape Permutation,
// Hotspot and Tornado share: host h's own stream draws its start phase,
// then every send carries msgBytes to dst(h, rng), with exponential gaps
// sized to offer load of lineRate.
func hostStreams(e *sim.Engine, tgt Target, horizon sim.Time, seed int64,
	msgBytes int, load float64, lineRate link.Rate, dst func(h int, rng *rand.Rand) int) {
	n := tgt.NumHosts()
	meanGapSec := float64(msgBytes*8) / (load * float64(lineRate))
	for h := 0; h < n; h++ {
		hrng := hostRand(seed, h)
		loop(e, horizon, startPhase(hrng, meanGapSec), func() sim.Time {
			tgt.InjectMessage(h, notSelf(dst(h, hrng), h, n), msgBytes)
			return expGap(hrng, meanGapSec)
		})
	}
}

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

// Start implements Workload. Start phases come from one shared stream.
// A host's own stream is first read in its first send, so it is seeded
// there: at low load most hosts of a large fabric never send before the
// horizon and never pay for a source. The stream is a pure function of
// (Seed, h), so the draws are the same as if it had been seeded here.
func (u *Uniform) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	meanGapSec := float64(u.MsgBytes*8) / (u.Load * float64(u.LineRate))
	rng := rand.New(rand.NewSource(u.Seed))
	for h := 0; h < n; h++ {
		var hrng *rand.Rand
		loop(e, horizon, startPhase(rng, meanGapSec), func() sim.Time {
			if hrng == nil {
				hrng = hostRand(u.Seed, h)
			}
			tgt.InjectMessage(h, notSelf(hrng.Intn(n), h, n), u.MsgBytes)
			return expGap(hrng, meanGapSec)
		})
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
	nServers := min(max(int(float64(n)*t.ServerFrac), 1), n-1)
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
		crng := hostRand(t.Seed, c)
		loop(e, horizon, seconds(crng.Float64()*think.Mean()), func() sim.Time {
			srv := servers[crng.Intn(len(servers))]
			tgt.InjectMessage(c, srv, t.ReqBytes)
			resp := int(t.Resp.Sample(crng))
			e.After(t.ServerDelay, func(now sim.Time) {
				if now <= horizon {
					tgt.InjectMessage(srv, c, resp)
				}
			})
			return seconds(think.Sample(crng))
		})
	}

	if t.ShuffleFrac == 0 {
		return
	}
	shuffleBps := totalBps * t.ShuffleFrac
	perHostShufflesPerSec := shuffleBps / t.ShuffleB.Mean() / float64(n)
	shuffleGap := t.Think.ScaleToMean(1 / perHostShufflesPerSec) // seconds

	// Background block shuffles from every host.
	for h := 0; h < n; h++ {
		hrng := hostRand(t.Seed^0x5DEECE66D, h)
		loop(e, horizon, seconds(hrng.Float64()*shuffleGap.Mean()), func() sim.Time {
			dst := notSelf(hrng.Intn(n), h, n)
			tgt.InjectMessage(h, dst, int(t.ShuffleB.Sample(hrng)))
			return seconds(shuffleGap.Sample(hrng))
		})
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

// Start implements Workload.
func (p *Permutation) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	perm := rand.New(rand.NewSource(p.Seed)).Perm(tgt.NumHosts())
	hostStreams(e, tgt, horizon, p.Seed, p.MsgBytes, p.Load, p.LineRate,
		func(h int, _ *rand.Rand) int { return perm[h] })
}

// Hotspot directs all hosts' traffic at a small set of hot destinations.
type Hotspot struct {
	MsgBytes int
	Load     float64
	LineRate link.Rate
	Hot      int // number of hot destinations (clamped to the host count)
	Seed     int64
}

// Start implements Workload.
func (p *Hotspot) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	hot := min(max(p.Hot, 1), tgt.NumHosts())
	hostStreams(e, tgt, horizon, p.Seed, p.MsgBytes, p.Load, p.LineRate,
		func(_ int, rng *rand.Rand) int { return rng.Intn(hot) })
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

// Start implements Workload.
func (p *Tornado) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	hostStreams(e, tgt, horizon, p.Seed, p.MsgBytes, p.Load, p.LineRate,
		func(h int, _ *rand.Rand) int { return (h + n/2) % n })
}
