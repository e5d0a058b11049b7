package traffic

import (
	"epnet/internal/link"
	"epnet/internal/sim"
)

// Migration models a migration storm: Streams concurrent point-to-point
// bulk transfers (VM images, shard rebalancing), each moving TotalBytes
// from a random source to a random destination in ChunkBytes messages
// paced at Load of line rate. When a transfer completes, the stream
// immediately picks a fresh random (src, dst) pair and starts the next
// one, so the storm persists until the horizon.
//
// Unlike Uniform's short flows, each active transfer keeps one path hot
// for a long stretch while the rest of the fabric idles — the sustained
// elephant-flow case for per-link rate tuning.
type Migration struct {
	// TotalBytes is the per-transfer size; ChunkBytes the message size
	// it is cut into.
	TotalBytes int
	ChunkBytes int
	// Streams is the number of concurrent transfers (0 = one per 8
	// hosts, minimum 1).
	Streams int
	// Load is each stream's egress utilization while transferring.
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// Name implements Workload.
func (m *Migration) Name() string { return "Migration" }

// AvgUtil implements Workload. Load is per active stream; the cluster
// mean is Streams*Load/n.
func (m *Migration) AvgUtil() float64 { return m.Load }

// Start implements Workload.
func (m *Migration) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	streams := m.Streams
	if streams <= 0 {
		streams = n / 8
	}
	if streams < 1 {
		streams = 1
	}
	chunks := (m.TotalBytes + m.ChunkBytes - 1) / m.ChunkBytes
	if chunks < 1 {
		chunks = 1
	}
	meanGapSec := float64(m.ChunkBytes*8) / (m.Load * float64(m.LineRate))
	for s := 0; s < streams; s++ {
		srng := hostRand(m.Seed, s)
		var src, dst, left int
		pick := func() {
			src = srng.Intn(n)
			dst = srng.Intn(n)
			if dst == src {
				dst = (dst + 1) % n
			}
			left = chunks
		}
		pick()
		var send func(now sim.Time)
		send = func(now sim.Time) {
			if now > horizon {
				return
			}
			tgt.InjectMessage(src, dst, m.ChunkBytes)
			if left--; left == 0 {
				pick()
			}
			gap := sim.Time(srng.ExpFloat64() * meanGapSec * float64(sim.Second))
			if gap < sim.Nanosecond {
				gap = sim.Nanosecond
			}
			e.After(gap, send)
		}
		e.After(sim.Time(srng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), send)
	}
}
