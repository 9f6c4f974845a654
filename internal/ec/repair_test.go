package ec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDoneIdempotentAfterHolderComplete is the regression test for the
// double-report bug: a duplicate Done for an already-completed holder
// used to drive the stripes left below zero and return a second
// spurious completion, re-triggering re-integration.
func TestDoneIdempotentAfterHolderComplete(t *testing.T) {
	m, _, _ := spreadGroup(false)
	m.Enqueue(3, 4, 64, 64)
	task, ok := m.Claim(64)
	if !ok {
		t.Fatal("no task")
	}
	if !m.Done(task) {
		t.Fatal("first Done did not complete the holder")
	}
	if m.Done(task) {
		t.Fatal("duplicate Done reported completion again")
	}
	if got := m.RepairedStripes(); got != 64 {
		t.Fatalf("duplicate Done double-counted repairs: %d, want 64", got)
	}
	if got := m.chunks[3].left; got != 0 {
		t.Fatalf("stripes left after duplicate Done = %d, want 0", got)
	}
	// A fresh enqueue for the same holder starts clean.
	m.Enqueue(3, 4, 10, 64)
	task, _ = m.Claim(64)
	if !m.Done(task) {
		t.Fatal("re-enqueued holder did not complete")
	}
}

// stripeLedger tallies TraceHook transitions in stripes, not tasks:
// Claim splits one enqueued task into several terminal reports, so
// only the stripe counts can balance.
type stripeLedger struct{ enqueued, done, void, resets int }

func (l *stripeLedger) hook(op string, t RepairTask) {
	switch op {
	case "enqueue":
		l.enqueued += t.Stripes
	case "done":
		l.done += t.Stripes
	case "void":
		l.void += t.Stripes
	case "reset":
		l.resets++
	}
}

// TestTraceHookVoidBalance is the regression test for the skipped
// terminal transition: tasks superseded by a later Enqueue — whether
// still queued or already claimed — used to emit "enqueue" with no
// matching terminal op, so flight-recorder queue accounting could never
// balance. Every enqueued stripe must now reach exactly one of "done"
// or "void".
func TestTraceHookVoidBalance(t *testing.T) {
	m, _, _ := spreadGroup(false)
	var ledger stripeLedger
	m.TraceHook = ledger.hook

	m.Enqueue(1, 2, 100, 64) // tasks of 64 + 36
	claimed, _ := m.Claim(10)
	// Re-enqueueing voids the queued 90 and leaves the claimed 10 in
	// flight.
	m.Enqueue(1, 2, 20, 64)
	if ledger.void != 90 {
		t.Fatalf("Enqueue voided %d stripes, want 90 (the queued remainder)", ledger.void)
	}
	if m.Done(claimed) {
		t.Fatal("stale claim completed a re-enqueued holder")
	}
	if ledger.void != 100 {
		t.Fatalf("stale Done voided %d stripes total, want 100", ledger.void)
	}

	// The holder's re-enqueued rebuild completes normally.
	task, _ := m.Claim(64)
	if !m.Done(task) {
		t.Fatal("re-enqueued rebuild did not complete")
	}
	if ledger.enqueued != ledger.done+ledger.void {
		t.Fatalf("unbalanced ledger: enqueued %d != done %d + void %d",
			ledger.enqueued, ledger.done, ledger.void)
	}
	if ledger.done != 20 || ledger.resets != 2 {
		t.Fatalf("done=%d resets=%d, want 20 and 2", ledger.done, ledger.resets)
	}
}

// TestCompactPlacementRejectsWidthOverServers is the regression test for
// the compact-mode holder collision: with Width > Servers the in-rack
// rotation (start+i) % Servers must wrap two chunks onto one server, so
// the geometry is rejected — ValidateCluster returns an error on the
// config path and Place panics for direct Placer users instead of
// silently violating the distinct-servers invariant.
func TestCompactPlacementRejectsWidthOverServers(t *testing.T) {
	spec := Spec{K: 4, M: 2}
	if err := spec.ValidateCluster(1, 5, PlaceCompact); err == nil {
		t.Error("ValidateCluster accepted width-6 compact placement on 5 servers")
	}
	if err := spec.ValidateCluster(3, 5, PlaceCompact); err == nil {
		t.Error("ValidateCluster accepted width-6 compact placement on 5-server racks")
	}
	for _, placer := range []Placer{
		{Servers: 5, Width: 6, Mode: PlaceCompact},
		{Servers: 5, Racks: 3, Width: 6, Mode: PlaceCompact},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place with Width=%d > Servers=%d (racks=%d) did not panic",
						placer.Width, placer.Servers, placer.Racks)
				}
			}()
			out := placer.Place(0)
			seen := make(map[int]bool)
			for _, srv := range out {
				if seen[srv] {
					t.Fatalf("silent collision: %v", out)
				}
				seen[srv] = true
			}
		}()
	}
}

// TestNextUpToResetProperty drives random enqueue / claim / split /
// supersede / done / duplicate-done sequences against a reference model
// and asserts the repair queue's lifecycle invariants: split remainders
// inherit the head's generation, voided (stale-generation) completions
// never count toward the new rebuild, the stripes left never go
// negative, and the trace ledger balances once everything drains.
func TestNextUpToResetProperty(t *testing.T) {
	const holders = 3
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _, _ := spreadGroup(false)
		var ledger stripeLedger
		m.TraceHook = ledger.hook

		modelRemaining := make([]int, holders)
		modelGen := make([]int, holders)
		modelRepaired := 0
		var inflight []RepairTask
		var completed []RepairTask

		check := func() bool {
			for h := 0; h < holders; h++ {
				left := m.chunks[h].left
				if left < 0 {
					t.Errorf("seed %d: left(%d) = %d < 0", seed, h, left)
					return false
				}
				if left != modelRemaining[h] {
					t.Errorf("seed %d: left(%d) = %d, model %d", seed, h, left, modelRemaining[h])
					return false
				}
				if m.Gen(h) != modelGen[h] {
					t.Errorf("seed %d: Gen(%d) = %d, model %d", seed, h, m.Gen(h), modelGen[h])
					return false
				}
			}
			if m.RepairedStripes() != modelRepaired {
				t.Errorf("seed %d: repaired %d, model %d", seed, m.RepairedStripes(), modelRepaired)
				return false
			}
			return true
		}
		doDone := func(task RepairTask) bool {
			stale := task.Gen != modelGen[task.Holder]
			want := false
			if !stale {
				modelRepaired += task.Stripes
				modelRemaining[task.Holder] -= task.Stripes
				want = modelRemaining[task.Holder] == 0
			}
			if got := m.Done(task); got != want {
				t.Errorf("seed %d: Done(%+v) = %v, want %v (stale=%v)", seed, task, got, want, stale)
				return false
			}
			if !stale {
				completed = append(completed, task)
			}
			return true
		}

		for step := 0; step < 60; step++ {
			h := rng.Intn(holders)
			switch rng.Intn(5) {
			case 0: // enqueue a fresh rebuild
				n := 1 + rng.Intn(40)
				m.Enqueue(h, h, n, 1+rng.Intn(16))
				modelGen[h]++
				modelRemaining[h] = n
			case 1: // claim a (possibly split) prefix
				task, ok := m.Claim(1 + rng.Intn(12))
				if !ok {
					continue
				}
				// Queued tasks are always current-generation (Enqueue
				// purges the position's old ones), so a split head and
				// its remainder share the gen.
				if task.Gen != modelGen[task.Holder] {
					t.Errorf("seed %d: claimed task gen %d, holder gen %d",
						seed, task.Gen, modelGen[task.Holder])
					return false
				}
				inflight = append(inflight, task)
			case 2: // report an in-flight claim
				if len(inflight) == 0 {
					continue
				}
				i := rng.Intn(len(inflight))
				task := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				if !doDone(task) {
					return false
				}
			case 3: // supersede a holder with an empty rebuild: void its queue and claims
				m.Enqueue(h, h, 0, 1)
				modelGen[h]++
				modelRemaining[h] = 0
			case 4: // duplicate Done for a completed holder: silent no-op
				if len(completed) == 0 {
					continue
				}
				task := completed[rng.Intn(len(completed))]
				if task.Gen != modelGen[task.Holder] || modelRemaining[task.Holder] != 0 {
					// A duplicate of a still-open rebuild's task is
					// indistinguishable from a live claim, and a later
					// Enqueue makes it a stale report; neither is the
					// double-report scenario.
					continue
				}
				if m.Done(task) {
					t.Errorf("seed %d: duplicate Done(%+v) reported completion", seed, task)
					return false
				}
				if m.RepairedStripes() != modelRepaired {
					t.Errorf("seed %d: duplicate Done recounted stripes", seed)
					return false
				}
			}
			if !check() {
				return false
			}
		}

		// Drain: complete everything still queued or in flight, then the
		// stripe ledger must balance exactly.
		for {
			task, ok := m.Claim(16)
			if !ok {
				break
			}
			if !doDone(task) {
				return false
			}
		}
		for _, task := range inflight {
			if !doDone(task) {
				return false
			}
		}
		if !check() {
			return false
		}
		if ledger.enqueued != ledger.done+ledger.void {
			t.Errorf("seed %d: unbalanced ledger: enqueued %d != done %d + void %d",
				seed, ledger.enqueued, ledger.done, ledger.void)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
