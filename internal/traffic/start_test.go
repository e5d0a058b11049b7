package traffic

import (
	"runtime"
	"testing"

	"epnet/internal/sim"
)

// idleTarget has hosts but drops every message: it isolates what a
// generator's Start costs from what its messages cost.
type idleTarget int

func (n idleTarget) NumHosts() int           { return int(n) }
func (idleTarget) InjectMessage(_, _, _ int) {}

// uniformStartBytes returns the heap bytes Uniform.Start allocates per
// host at the 262,144-host benchmark's load and window (5%, 20 µs),
// where about 1% of hosts send before the horizon.
func uniformStartBytes(hosts int) float64 {
	u := DefaultUniform(1)
	u.Load = 0.05
	e := sim.New()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u.Start(e, idleTarget(hosts), 20*sim.Microsecond)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(e)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(hosts)
}

// TestUniformStartBytesPerHost gates the memory of hosts that never
// send: Start schedules each host's first send but seeds no stream, so
// its cost per host is the send closure and its queued event, not a
// ~4.9 KB math/rand source.
func TestUniformStartBytesPerHost(t *testing.T) {
	const limit = 512
	if got := uniformStartBytes(1 << 16); got > limit {
		t.Errorf("Uniform.Start allocates %.0f B/host, want <= %d", got, limit)
	}
}

// BenchmarkUniformStart measures Uniform.Start at 65,536 hosts: B/host
// (heap bytes allocated per host) and ns/host feed benchjson's
// per-host cost section next to BenchmarkBuildNetwork.
func BenchmarkUniformStart(b *testing.B) {
	const hosts = 1 << 16
	var bytes float64
	for i := 0; i < b.N; i++ {
		bytes += uniformStartBytes(hosts)
	}
	b.ReportMetric(bytes/float64(b.N), "B/host")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hosts, "ns/host")
}
