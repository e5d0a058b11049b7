package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"epnet/internal/sim"
	"epnet/internal/traffic"
)

// injection is one message a generator handed to its target.
type injection struct {
	at              sim.Time
	src, dst, bytes int
}

// recorder is a Target that logs every injection with its engine time.
type recorder struct {
	e     *sim.Engine
	hosts int
	log   []injection
}

func (r *recorder) NumHosts() int { return r.hosts }
func (r *recorder) InjectMessage(src, dst, size int) {
	r.log = append(r.log, injection{r.e.Now(), src, dst, size})
}

// record runs start on a fresh engine against a recorder of n hosts.
func record(n int, start func(*sim.Engine, traffic.Target)) []injection {
	e := sim.New()
	r := &recorder{e: e, hosts: n}
	start(e, r)
	e.Run()
	return r.log
}

// refWorkload overrides a generator's Start with a reference one.
type refWorkload struct {
	traffic.Workload
	start func(e *sim.Engine, tgt traffic.Target, horizon sim.Time)
}

func (r refWorkload) Start(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
	r.start(e, tgt, horizon)
}

// refRand spells out the per-host stream derivation independently of
// the package under test.
func refRand(seed int64, h int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(h)*0x2545F4914F6CDD1D))
}

// refLoop runs one stream: send at start, then again after every gap,
// until the horizon.
func refLoop(e *sim.Engine, horizon, start sim.Time, send func(), gap func() sim.Time) {
	var step func(now sim.Time)
	step = func(now sim.Time) {
		if now > horizon {
			return
		}
		send()
		e.After(gap(), step)
	}
	e.After(start, step)
}

func clampGap(g sim.Time) sim.Time {
	if g < sim.Nanosecond {
		return sim.Nanosecond
	}
	return g
}

func expGap(rng *rand.Rand, meanSec float64) func() sim.Time {
	return func() sim.Time { return clampGap(sim.Time(rng.ExpFloat64() * meanSec * float64(sim.Second))) }
}

func paretoGap(rng *rand.Rand, p traffic.Pareto) func() sim.Time {
	return func() sim.Time { return clampGap(sim.Time(p.Sample(rng) * float64(sim.Second))) }
}

func phaseIn(rng *rand.Rand, meanSec float64) sim.Time {
	return sim.Time(rng.Int63n(int64(meanSec*float64(sim.Second)) + 1))
}

func notSelf(dst, src, n int) int {
	if dst == src {
		return (dst + 1) % n
	}
	return dst
}

// eager returns the reference implementation of w: every per-host
// stream seeded up front at Start, each draw in the generator's order.
func eager(t *testing.T, w traffic.Workload) traffic.Workload {
	t.Helper()
	var start func(e *sim.Engine, tgt traffic.Target, horizon sim.Time)
	switch w := w.(type) {
	case *traffic.Uniform:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n := tgt.NumHosts()
			mean := float64(w.MsgBytes*8) / (w.Load * float64(w.LineRate))
			shared := rand.New(rand.NewSource(w.Seed))
			for h := 0; h < n; h++ {
				rng := refRand(w.Seed, h)
				send := func() { tgt.InjectMessage(h, notSelf(rng.Intn(n), h, n), w.MsgBytes) }
				refLoop(e, horizon, phaseIn(shared, mean), send, expGap(rng, mean))
			}
		}
	case *traffic.Permutation:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n := tgt.NumHosts()
			perm := rand.New(rand.NewSource(w.Seed)).Perm(n)
			mean := float64(w.MsgBytes*8) / (w.Load * float64(w.LineRate))
			for h := 0; h < n; h++ {
				dst, rng := notSelf(perm[h], h, n), refRand(w.Seed, h)
				send := func() { tgt.InjectMessage(h, dst, w.MsgBytes) }
				refLoop(e, horizon, phaseIn(rng, mean), send, expGap(rng, mean))
			}
		}
	case *traffic.Hotspot:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n, hot := tgt.NumHosts(), max(w.Hot, 1)
			mean := float64(w.MsgBytes*8) / (w.Load * float64(w.LineRate))
			for h := 0; h < n; h++ {
				rng := refRand(w.Seed, h)
				send := func() { tgt.InjectMessage(h, notSelf(rng.Intn(hot), h, n), w.MsgBytes) }
				refLoop(e, horizon, phaseIn(rng, mean), send, expGap(rng, mean))
			}
		}
	case *traffic.Tornado:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n := tgt.NumHosts()
			mean := float64(w.MsgBytes*8) / (w.Load * float64(w.LineRate))
			for h := 0; h < n; h++ {
				dst, rng := notSelf((h+n/2)%n, h, n), refRand(w.Seed, h)
				send := func() { tgt.InjectMessage(h, dst, w.MsgBytes) }
				refLoop(e, horizon, phaseIn(rng, mean), send, expGap(rng, mean))
			}
		}
	case *traffic.Migration:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n := tgt.NumHosts()
			streams := w.Streams
			if streams <= 0 {
				streams = max(n/8, 1)
			}
			chunks := max((w.TotalBytes+w.ChunkBytes-1)/w.ChunkBytes, 1)
			mean := float64(w.ChunkBytes*8) / (w.Load * float64(w.LineRate))
			for s := 0; s < streams; s++ {
				rng := refRand(w.Seed, s)
				var src, dst, left int
				pick := func() { src = rng.Intn(n); dst = notSelf(rng.Intn(n), src, n); left = chunks }
				pick()
				send := func() {
					tgt.InjectMessage(src, dst, w.ChunkBytes)
					if left--; left == 0 {
						pick()
					}
				}
				refLoop(e, horizon, phaseIn(rng, mean), send, expGap(rng, mean))
			}
		}
	case *traffic.TraceLike:
		start = func(e *sim.Engine, tgt traffic.Target, horizon sim.Time) {
			n := tgt.NumHosts()
			nServers := min(max(int(float64(n)*w.ServerFrac), 1), n-1)
			perm := rand.New(rand.NewSource(w.Seed)).Perm(n)
			servers, clients := perm[:nServers], perm[nServers:]
			totalBps := w.Load * float64(w.LineRate) / 8 * float64(n)
			exchangeBps := totalBps * (1 - w.ShuffleFrac)
			think := w.Think.ScaleToMean(1 / (exchangeBps / (float64(w.ReqBytes) + w.Resp.Mean()) / float64(len(clients))))
			for _, c := range clients {
				rng := refRand(w.Seed, c)
				send := func() {
					srv := servers[rng.Intn(len(servers))]
					tgt.InjectMessage(c, srv, w.ReqBytes)
					resp := int(w.Resp.Sample(rng))
					e.After(w.ServerDelay, func(now sim.Time) {
						if now <= horizon {
							tgt.InjectMessage(srv, c, resp)
						}
					})
				}
				at := sim.Time(rng.Float64() * think.Mean() * float64(sim.Second))
				refLoop(e, horizon, at, send, paretoGap(rng, think))
			}
			if w.ShuffleFrac == 0 {
				return
			}
			shuffleGap := w.Think.ScaleToMean(1 / (totalBps * w.ShuffleFrac / w.ShuffleB.Mean() / float64(n)))
			for h := 0; h < n; h++ {
				rng := refRand(w.Seed^0x5DEECE66D, h)
				send := func() {
					dst := notSelf(rng.Intn(n), h, n)
					tgt.InjectMessage(h, dst, int(w.ShuffleB.Sample(rng)))
				}
				at := sim.Time(rng.Float64() * shuffleGap.Mean() * float64(sim.Second))
				refLoop(e, horizon, at, send, paretoGap(rng, shuffleGap))
			}
		}
	default:
		t.Fatalf("no eager reference for %T", w)
	}
	return refWorkload{Workload: w, start: start}
}

// sameLog fails t at the first injection where got and want differ.
func sameLog(t *testing.T, got, want []injection) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("injection %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d injections, reference %d", len(got), len(want))
	}
	// The horizon must cut streams mid-run: some host has sent again
	// after its first message, so its stream has been read past the
	// start phase.
	sent := map[int]int{}
	for _, in := range got {
		if sent[in.src]++; sent[in.src] == 2 {
			return
		}
	}
	t.Fatalf("no host sent twice in %d injections", len(got))
}

// TestGeneratorsMatchEagerReference pins every per-host generator —
// and a diurnal paced Uniform stream, whose slices each call Start —
// to a reference that seeds each host's stream up front. Generators
// that seed a stream on its first draw must inject the same messages
// at the same times, for each seed.
func TestGeneratorsMatchEagerReference(t *testing.T) {
	const hosts = 64
	const horizon = sim.Millisecond
	for _, seed := range []int64{1, 13} {
		for _, kind := range []string{"uniform", "search", "advert", "permutation", "hotspot", "tornado", "migration"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				w := makers[kind](0, seed)
				ref := eager(t, w)
				got := record(hosts, func(e *sim.Engine, tgt traffic.Target) { w.Start(e, tgt, horizon) })
				want := record(hosts, func(e *sim.Engine, tgt traffic.Target) { ref.Start(e, tgt, horizon) })
				sameLog(t, got, want)
			})
		}
		t.Run(fmt.Sprintf("seed%d/diurnal-uniform", seed), func(t *testing.T) {
			src, err := NewSource(Traffic{Workload: "uniform", Load: 0.9, Shape: &Shape{Kind: ShapeDiurnal}}, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := src.(*paced)
			ref := *p
			ref.mk = func(load float64, seed int64) traffic.Workload { return eager(t, p.mk(load, seed)) }
			got := record(hosts, func(e *sim.Engine, tgt traffic.Target) { p.Run(e, tgt, 0, 2*horizon) })
			want := record(hosts, func(e *sim.Engine, tgt traffic.Target) { ref.Run(e, tgt, 0, 2*horizon) })
			sameLog(t, got, want)
		})
	}
}

// TestMinLoadRunsEveryKind runs every workload kind at exactly
// traffic.MinLoad for long enough that each host draws many gaps: all
// of them must fit in sim.Time, so nothing panics.
func TestMinLoadRunsEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			src, err := NewSource(Traffic{Workload: kind, Load: traffic.MinLoad}, 1)
			if err != nil {
				t.Fatal(err)
			}
			log := record(64, func(e *sim.Engine, tgt traffic.Target) { src.Run(e, tgt, 0, 2000*sim.Second) })
			if len(log) == 0 {
				t.Errorf("%s injected nothing at load %v", kind, traffic.MinLoad)
			}
		})
	}
}
