package core

import (
	"reflect"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/workload"
)

// staleRun is one run of a stale-attempt scenario: the rack after the
// engine drained, and whether the fresh request reused the stale
// attempt's recycled reqState.
type staleRun struct {
	r      *Rack
	reused bool
}

// TestStaleAttemptCannotTouchRecycledState checks the reqState ownership
// rule: only r.reqs holds a *reqState, so once a request is retired its
// state can be recycled for the next request while completions of its
// old attempts are still in flight. Each case gives up on a write while
// one of its completions is pending, issues a fresh request that takes
// the recycled state, and lets the stale completion land. The stale
// completion must neither respond nor touch the fresh request: each
// request is counted once, and the fresh request's sample and every
// handler count match a run whose fresh request gets a never-used state.
func TestStaleAttemptCannotTouchRecycledState(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		// stale issues a write and gives up on it while one of its
		// completions is in flight; it returns the retired state.
		stale func(t *testing.T, r *Rack) *reqState
		// fresh issues the request that takes the recycled state.
		fresh func(r *Rack)
		// pending reports whether the stale completion has yet to land.
		pending func(r *Rack) bool
	}{
		{
			// An EC write times out while a holder's server.cache_insert
			// is in flight; it is retransmitted under a new seq, and
			// given up on once the retries are spent.
			name: "ec cache insert",
			cfg:  ecConfig,
			stale: func(t *testing.T, r *Rack) *reqState {
				r.sendECOp(r.groups[0], workload.Op{LPN: 3, Write: true})
				seq := r.seq
				st := r.reqs[seq]
				for st.dispatched == 0 {
					if !r.eng.Step() {
						t.Fatal("engine drained before the write reached a holder")
					}
				}
				for i := 0; i <= maxECRetries; i++ {
					r.timeout(seq)
					seq = r.seq
				}
				if r.res.ECRetransmits != maxECRetries {
					t.Fatalf("%d retransmits, want %d", r.res.ECRetransmits, maxECRetries)
				}
				return st
			},
			fresh: func(r *Rack) { r.sendECOp(r.groups[0], workload.Op{LPN: 11, Write: true}) },
			pending: func(r *Rack) bool {
				return r.eng.ProcessedBy()["server.cache_insert"] == 0
			},
		},
		{
			// A replicated write is given up on while its Hermes round is
			// in flight; the commit lands after its state was reused.
			name: "hermes commit",
			cfg:  DefaultConfig,
			stale: func(t *testing.T, r *Rack) *reqState {
				pr := r.pairs[0]
				r.send(pr, workload.Op{LPN: 5, Write: true})
				seq := r.seq
				st := r.reqs[seq]
				for pr.primary.repl.Pending() == 0 {
					if !r.eng.Step() {
						t.Fatal("engine drained before the write's Hermes round began")
					}
				}
				r.timeout(seq)
				return st
			},
			fresh:   func(r *Rack) { r.send(r.pairs[0], workload.Op{LPN: 9, Write: true}) },
			pending: func(r *Rack) bool { return r.pairs[0].primary.repl.Pending() > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(recycle bool) staleRun {
				cfg := tc.cfg()
				cfg.Warmup = 0 // record every completion
				r, err := NewRack(cfg)
				if err != nil {
					t.Fatal(err)
				}
				retired := tc.stale(t, r)
				if r.res.LostRequests != 1 || len(r.reqs) != 0 {
					t.Fatalf("after giving up: %d lost, %d in flight; want 1, 0", r.res.LostRequests, len(r.reqs))
				}
				if !tc.pending(r) {
					t.Fatal("the stale completion already landed; the case exercises nothing")
				}
				if !recycle {
					r.freeStates = sim.FreeList[reqState]{}
				}
				tc.fresh(r)
				reused := r.reqs[r.seq] == retired
				r.eng.Run()
				if tc.pending(r) {
					t.Fatal("the stale completion never landed")
				}
				if r.completedWrites != 1 || r.res.Recorder.Len() != 1 {
					t.Errorf("%d writes completed, %d samples; want the fresh write counted once",
						r.completedWrites, r.res.Recorder.Len())
				}
				return staleRun{r: r, reused: reused}
			}
			got, want := run(true), run(false)
			if !got.reused {
				t.Fatal("the fresh request did not reuse the retired state")
			}
			if want.reused {
				t.Fatal("the reference run reused the retired state")
			}
			if !reflect.DeepEqual(got.r.res.Recorder, want.r.res.Recorder) {
				t.Errorf("samples differ from a run without recycling:\n got %+v\nwant %+v",
					got.r.res.Recorder.All(), want.r.res.Recorder.All())
			}
			if g, w := got.r.eng.ProcessedBy(), want.r.eng.ProcessedBy(); !reflect.DeepEqual(g, w) {
				t.Errorf("handler counts differ from a run without recycling:\n got %v\nwant %v", g, w)
			}
		})
	}
}
