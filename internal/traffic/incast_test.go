package traffic

import (
	"testing"

	"epnet/internal/link"
	"epnet/internal/sim"
)

// sink records injections for the generator tests.
type sink struct {
	e     *sim.Engine
	hosts int
	msgs  []struct{ src, dst, size int }
}

func (s *sink) NumHosts() int { return s.hosts }
func (s *sink) InjectMessage(src, dst, size int) {
	s.msgs = append(s.msgs, struct{ src, dst, size int }{src, dst, size})
}

func runGen(t *testing.T, w Workload, hosts int, horizon sim.Time) *sink {
	t.Helper()
	e := sim.New()
	s := &sink{e: e, hosts: hosts}
	w.Start(e, s, horizon)
	e.Run()
	if len(s.msgs) == 0 {
		t.Fatalf("%T injected nothing in %v", w, horizon)
	}
	return s
}

// TestIncastFanin checks the signature pattern: bursts of Fanin
// messages converging on one destination, never self-addressed.
func TestIncastFanin(t *testing.T) {
	w := &Incast{MsgBytes: 4096, Fanin: 8, Load: 0.3, LineRate: link.Rate40G, Seed: 3}
	s := runGen(t, w, 32, 500*sim.Microsecond)
	if len(s.msgs)%8 != 0 {
		t.Fatalf("%d messages is not a whole number of fanin-8 bursts", len(s.msgs))
	}
	for i := 0; i < len(s.msgs); i += 8 {
		dst := s.msgs[i].dst
		for _, m := range s.msgs[i : i+8] {
			if m.dst != dst {
				t.Fatalf("burst at %d fans into %d and %d", i, dst, m.dst)
			}
			if m.src == m.dst {
				t.Fatal("self-addressed incast flow")
			}
			if m.size != 4096 {
				t.Fatalf("message size %d, want 4096", m.size)
			}
		}
	}
	// The victim must rotate: a single hot destination would be Hotspot.
	dsts := map[int]bool{}
	for i := 0; i < len(s.msgs); i += 8 {
		dsts[s.msgs[i].dst] = true
	}
	if len(dsts) < 2 {
		t.Error("incast victim never rotated")
	}
}

// TestIncastFaninClamped keeps tiny networks safe: fan-in wider than
// the host count minus the victim clamps rather than self-sending.
func TestIncastFaninClamped(t *testing.T) {
	w := &Incast{MsgBytes: 1024, Fanin: 64, Load: 0.3, LineRate: link.Rate40G, Seed: 1}
	s := runGen(t, w, 4, 200*sim.Microsecond)
	for _, m := range s.msgs {
		if m.src == m.dst {
			t.Fatal("self-addressed flow on a clamped fan-in")
		}
	}
	if len(s.msgs)%3 != 0 {
		t.Errorf("%d messages: fan-in did not clamp to hosts-1=3", len(s.msgs))
	}
}

// TestMigrationStreams checks the bulk-transfer pattern: each stream
// sends TotalBytes/ChunkBytes chunks along one (src, dst) pair before
// re-picking, and chunks never self-address.
func TestMigrationStreams(t *testing.T) {
	w := &Migration{TotalBytes: 64 * 1024, ChunkBytes: 16 * 1024, Streams: 1,
		Load: 0.4, LineRate: link.Rate40G, Seed: 5}
	s := runGen(t, w, 16, 2000*sim.Microsecond)
	// One stream: chunks arrive in runs of 4 (64k/16k) per pair.
	const run = 4
	if len(s.msgs) < run {
		t.Fatalf("only %d chunks", len(s.msgs))
	}
	for i := 0; i+run <= len(s.msgs); i += run {
		first := s.msgs[i]
		for _, m := range s.msgs[i : i+run] {
			if m.src != first.src || m.dst != first.dst {
				t.Fatalf("chunk run at %d switches pairs mid-transfer", i)
			}
			if m.src == m.dst {
				t.Fatal("self-addressed migration")
			}
			if m.size != 16*1024 {
				t.Fatalf("chunk size %d", m.size)
			}
		}
	}
	pairs := map[[2]int]bool{}
	for _, m := range s.msgs {
		pairs[[2]int{m.src, m.dst}] = true
	}
	if len(pairs) < 2 {
		t.Error("migration never moved to a second pair")
	}
}

// TestGeneratorsDeterministic re-runs both generators from the same
// seed and expects identical injection sequences; a different seed must
// diverge.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed int64) []struct{ src, dst, size int } {
		w := &Incast{MsgBytes: 2048, Fanin: 4, Load: 0.2, LineRate: link.Rate40G, Seed: seed}
		return runGen(t, w, 16, 300*sim.Microsecond).msgs
	}
	a, b, c := gen(9), gen(9), gen(10)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at message %d", i)
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traffic")
	}
}
