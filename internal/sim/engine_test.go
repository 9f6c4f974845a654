package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine now = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine pending = %d, want 0", e.Pending())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTiesRunInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(500, func(Time) {
		e.After(250, func(now Time) { at = now })
	})
	e.Run()
	if at != 750 {
		t.Fatalf("After fired at %d, want 750", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run()
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func(now Time) { ran = append(ran, now) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("now = %d, want 25 after RunUntil", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("ran %d events total, want 4", len(ran))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(12345)
	if e.Now() != 12345 {
		t.Fatalf("now = %d, want 12345", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.At(Time(i), func(Time) {
			n++
			if n == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 5 {
		t.Fatalf("processed %d events after Stop, want 5", n)
	}
	// Run can resume afterwards.
	e.Run()
	if n != 100 {
		t.Fatalf("processed %d events after resume, want 100", n)
	}
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func(Time) {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

// Property: for any set of event times, execution order is the sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, u := range times {
			at := Time(u)
			e.At(at, func(now Time) { got = append(got, now) })
		}
		e.Run()
		want := make([]Time, len(times))
		for i, u := range times {
			want[i] = Time(u)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: nested scheduling never observes time going backwards.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine()
		r := rand.New(rand.NewSource(seed))
		last := Time(-1)
		ok := true
		var spawn func(now Time)
		count := 0
		spawn = func(now Time) {
			if now < last {
				ok = false
			}
			last = now
			count++
			if count < 200 {
				e.After(Time(r.Intn(1000)), spawn)
				if r.Intn(2) == 0 {
					e.After(Time(r.Intn(1000)), spawn)
				}
			}
		}
		e.At(0, spawn)
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Regression (PR 7): Stop() during RunUntil used to force the clock to
// the deadline while skipping both pending events and tick boundaries;
// the next Step then rewound e.now to the stale boundary. The clock must
// stay at the last executed event when stopped, and every subsequently
// observed timestamp — events and ticks — must be monotone.
func TestStopDuringRunUntilKeepsClockMonotone(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	last := Time(-1)
	observe := func(at Time) {
		if at < last {
			t.Fatalf("clock rewound: observed %d after %d (stamps %v)", at, last, stamps)
		}
		last = at
		stamps = append(stamps, at)
	}
	e.SetTick(10, observe)
	for _, at := range []Time{25, 50, 75, 100} {
		at := at
		e.At(at, func(now Time) {
			observe(now)
			if now == 50 {
				e.Stop()
			}
		})
	}
	e.RunUntil(100)
	if e.Now() != 50 {
		t.Fatalf("now = %d after Stop mid-RunUntil, want 50 (the stopping event)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after Stop, want 2", e.Pending())
	}
	// Resume: the events at 75 and 100 and the boundaries in between all
	// fire, in order, with no rewind.
	e.Run()
	want := []Time{10, 20, 25, 30, 40, 50, 50, 60, 70, 75, 80, 90, 100, 100}
	if len(stamps) != len(want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

// Regression (PR 7): the old eventHeap.Pop left the popped event — its
// closure and label — live in the truncated slice's backing array, so a
// long run retained every callback it had ever executed. The pooled-node
// rewrite zeroes drained slots; pool accounting verifies no closure
// survives a drain, on both schedulers.
func TestDrainedEventsReleaseClosures(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Engine
	}{{"wheel", NewEngine}, {"heap", newHeapEngine}} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			// Several waves through the free list, with nested grants.
			for wave := 0; wave < 5; wave++ {
				for i := 0; i < 200; i++ {
					payload := make([]byte, 1024)
					e.AfterNamed(Time(i%17), "grant", func(now Time) {
						e.After(1, func(Time) { payload[0]++ })
					})
				}
				e.Run()
			}
			if n := e.pool.live(); n != 0 {
				t.Errorf("%d drained pool nodes still hold closures", n)
			}
			// The pool recycles: five waves of ~400 live events must not
			// have grown it anywhere near the 2000 scheduled.
			if n := len(e.pool.nodes); n > 600 {
				t.Errorf("pool grew to %d nodes for <= ~417 concurrent events", n)
			}
		})
	}
}

func TestResourceSerializesWork(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	type span struct{ start, end Time }
	var spans []span
	for i := 0; i < 5; i++ {
		// The completion fires at end; the window's start is Acquire's
		// return value.
		var start Time
		start, _ = r.Acquire(100, EventFunc(func(now Time) { spans = append(spans, span{start, now}) }))
	}
	e.Run()
	if len(spans) != 5 {
		t.Fatalf("got %d completions, want 5", len(spans))
	}
	for i, s := range spans {
		wantStart := Time(i) * 100
		if s.start != wantStart || s.end != wantStart+100 {
			t.Fatalf("span %d = [%d,%d], want [%d,%d]", i, s.start, s.end, wantStart, wantStart+100)
		}
	}
}

func TestResourceIdleAndFreeAt(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	if !r.Idle() {
		t.Fatal("new resource not idle")
	}
	_, end := r.Acquire(500, nil)
	if end != 500 {
		t.Fatalf("end = %d, want 500", end)
	}
	if r.Idle() {
		t.Fatal("resource idle while reserved")
	}
	if r.FreeAt() != 500 {
		t.Fatalf("FreeAt = %d, want 500", r.FreeAt())
	}
	e.RunUntil(600)
	if !r.Idle() {
		t.Fatal("resource not idle after work completes")
	}
}

func TestResourceBlockExtendsBusy(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Block(1000)
	start, end := r.Acquire(100, nil)
	if start != 1000 || end != 1100 {
		t.Fatalf("acquire after block = [%d,%d], want [1000,1100]", start, end)
	}
	// Blocking to an earlier time is a no-op.
	r.Block(500)
	if r.FreeAt() != 1100 {
		t.Fatalf("FreeAt = %d, want 1100", r.FreeAt())
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(400, nil)
	e.RunUntil(1000)
	u := r.Utilization()
	if u < 0.39 || u > 0.41 {
		t.Fatalf("utilization = %f, want ~0.4", u)
	}
}

// Property: FIFO reservations never overlap and never leave gaps when
// requests arrive back-to-back.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		e := NewEngine()
		r := NewResource(e)
		prevEnd := Time(0)
		for _, d := range durs {
			start, end := r.Acquire(Time(d), nil)
			if start < prevEnd || start != prevEnd {
				return false
			}
			if end != start+Time(d) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
