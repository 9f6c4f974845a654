package core

import (
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/workload"
)

// datapathAllocBudget is what one foreground request may allocate once
// the rack is warm: its reqState, the client's record of the request.
// Every hop, pipeline pass, queue entry, device completion and Hermes
// message in between is recycled.
const datapathAllocBudget = 1

// TestDatapathSteadyStateAllocs is the CI datapath allocation gate. It
// warms a DefaultConfig rack with a short run, then drives single
// foreground reads and writes of one pair end to end — client, ToR,
// server queue, DRAM or flash, Hermes replication for writes, and back
// through the ToR — and asserts the allocations per completed request.
// Counts are deterministic, so a closure creeping back onto the hot path
// fails here exactly, where a timing threshold would flake.
func TestDatapathSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200 * sim.Millisecond
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run() // warm: free lists, maps, recorder blocks
	pr := r.pairs[0]
	keys := uint32(r.Keyspace())
	for _, tc := range []struct {
		name      string
		write     bool
		completed *int64
	}{
		{"read", false, &r.completedReads},
		{"write", true, &r.completedWrites},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lpn uint32
			one := func() {
				// Stride through the keyspace so writes keep reaching
				// flash through the cache's flusher.
				lpn = (lpn + 7919) % keys
				r.send(pr, workload.Op{LPN: lpn, Write: tc.write})
				r.eng.Run()
			}
			for i := 0; i < 500; i++ {
				one()
			}
			const runs = 500
			before := *tc.completed
			avg := testing.AllocsPerRun(runs, one)
			// AllocsPerRun makes one extra warm-up call.
			if got := *tc.completed - before; got != runs+1 {
				t.Fatalf("%d %ss completed, want %d", got, tc.name, runs+1)
			}
			t.Logf("%.0f allocations per steady-state foreground %s", avg, tc.name)
			if avg > datapathAllocBudget {
				t.Errorf("steady-state foreground %s allocates %.0f objects, want <= %d (the reqState)",
					tc.name, avg, datapathAllocBudget)
			}
		})
	}
}
