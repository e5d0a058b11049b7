package sim

import (
	"testing"
)

// TestLaneOrderingAtSameTime verifies that events at one timestamp run
// in ascending (lane ID, per-lane order), with lane-0 (At) events
// first — the canonical order the sharded fabric reproduces.
func TestLaneOrderingAtSameTime(t *testing.T) {
	e := New()
	l1 := NewLane(1)
	l2 := NewLane(2)
	var got []string
	rec := func(tag string) Event { return func(Time) { got = append(got, tag) } }

	// Schedule out of lane order on purpose.
	e.AtLane(10, &l2, rec("l2-a"))
	e.AtLane(10, &l1, rec("l1-a"))
	e.At(10, rec("ctl-a"))
	e.AtLane(10, &l1, rec("l1-b"))
	e.AtLane(10, &l2, rec("l2-b"))
	e.At(10, rec("ctl-b"))
	e.Run()

	want := []string{"ctl-a", "ctl-b", "l1-a", "l1-b", "l2-a", "l2-b"}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestPushKeyedReplaysLaneOrder verifies that staging keys on one engine
// and replaying them on another via PushKeyed reproduces the original
// execution order, regardless of push order.
func TestPushKeyedReplaysLaneOrder(t *testing.T) {
	// Reference: one engine, two lanes, interleaved scheduling.
	type ev struct {
		at  Time
		key uint64
		tag string
	}
	l1 := NewLane(1)
	l2 := NewLane(2)
	staged := []ev{
		{at: 5, key: l1.NextKey(), tag: "a"},
		{at: 5, key: l2.NextKey(), tag: "b"},
		{at: 5, key: l1.NextKey(), tag: "c"},
		{at: 3, key: l2.NextKey(), tag: "d"},
	}
	var got []string
	fn := func(_ Time, arg any, _ int64) { got = append(got, arg.(string)) }

	// Push in reverse order; keys alone must restore (at, lane) order.
	e := New()
	for i := len(staged) - 1; i >= 0; i-- {
		e.PushKeyed(staged[i].at, staged[i].key, fn, staged[i].tag, 0)
	}
	e.Run()

	want := []string{"d", "a", "c", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestRunBeforeWindow verifies the [now, end) window semantics: events
// strictly before the end run, events at the end stay queued, and the
// clock parks on the barrier.
func TestRunBeforeWindow(t *testing.T) {
	e := New()
	var ran []Time
	rec := func(now Time) { ran = append(ran, now) }
	e.At(10, rec)
	e.At(20, rec)
	e.At(30, rec)

	e.RunBefore(20)
	if len(ran) != 1 || ran[0] != 10 {
		t.Fatalf("RunBefore(20) ran %v, want [10]", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}

	e.RunBefore(31)
	if len(ran) != 3 {
		t.Fatalf("ran %v, want all three", ran)
	}
	if e.Now() != 31 {
		t.Fatalf("Now = %v, want 31", e.Now())
	}
}

// TestAdvanceTo verifies the no-skip and no-rewind guards.
func TestAdvanceTo(t *testing.T) {
	e := New()
	e.AdvanceTo(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}

	e.At(150, func(Time) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo past a pending event did not panic")
			}
		}()
		e.AdvanceTo(200)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo backwards did not panic")
			}
		}()
		e.AdvanceTo(50)
	}()
}

// TestNextAt exercises the queue peek.
func TestNextAt(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	e.At(42, func(Time) {})
	e.At(7, func(Time) {})
	at, ok := e.NextAt()
	if !ok || at != 7 {
		t.Fatalf("NextAt = %v,%v, want 7,true", at, ok)
	}
}

// TestLaneIDBounds verifies lane ID validation.
func TestLaneIDBounds(t *testing.T) {
	for _, id := range []uint64{0, MaxLaneID + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLane(%d) did not panic", id)
				}
			}()
			NewLane(id)
		}()
	}
	NewLane(1)
	NewLane(MaxLaneID)
}
