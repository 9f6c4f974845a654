package core

import (
	"encoding/json"
	"testing"
)

// runJSON builds a rack, runs it, and returns the full Result as JSON —
// the byte-level identity the determinism invariant promises.
func runJSON(t *testing.T, sys System, seed int64) []byte {
	t.Helper()
	cfg := shortConfig(sys)
	cfg.Seed = seed
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatalf("NewRack: %v", err)
	}
	b, err := json.Marshal(r.Run())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestReplayByteIdentical runs the same configuration twice for several
// seeds and systems and asserts byte-identical Result JSON. The
// experiments package has the same check at figure granularity; this one
// sits at the core layer so a determinism regression is caught next to
// the code that introduced it. Together with rackvet's simdeterminism
// check (which proves no map iteration order can reach the event loop
// statically) it pins the invariant from both sides: the GC bursts
// exercised here reserve their flash channels in channel order, from
// the per-channel slice startGCBurst walks, across every run.
func TestReplayByteIdentical(t *testing.T) {
	for _, sys := range []System{VDC, RackBlox} {
		for _, seed := range []int64{1, 7, 42} {
			first := runJSON(t, sys, seed)
			second := runJSON(t, sys, seed)
			if string(first) != string(second) {
				t.Errorf("%v seed %d: two same-seed runs diverged\nfirst:  %.200s\nsecond: %.200s",
					sys, seed, first, second)
			}
		}
	}
}
