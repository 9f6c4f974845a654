package experiments

import (
	"testing"

	"rackblox/internal/core"
)

// TestSpineBytesSelfConsistent is the core-level guard for the
// sim.Bandwidth.TransferTime rounding fix: across every run of every
// experiment with a spine (figec, figmr, figrl, figsc, figslo, figra),
// the spine's delivered bytes must reconcile with its offered bytes
// and — because transfers serialize on one link whose occupancy is
// rounded UP to whole nanoseconds — the delivered byte total can never
// imply a rate above the configured spine capacity. Before the fix,
// truncation let back-to-back transfers finish early, so a saturated
// spine "moved" more bytes per elapsed second than it was configured
// for, quietly inflating the repair-throughput side of the cluster
// tables.
func TestSpineBytesSelfConsistent(t *testing.T) {
	for _, id := range []string{"figec", "figmr", "figrl", "figsc", "figslo", "figra"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var runs int
			opt := Options{OnResult: func(id, series string, res *core.Result) {
				runs++
				delivered := res.CrossRackRepairBytes + res.ForegroundCrossRackBytes
				offered := res.CrossRackRepairBytesOffered + res.ForegroundCrossRackBytesOffered
				if delivered > offered {
					t.Errorf("%s/%s: delivered %d bytes exceeds offered %d",
						id, series, delivered, offered)
				}
				if u := res.SpineUtilization; u < 0 || u > 1 {
					t.Errorf("%s/%s: spine utilization %v outside [0,1]", id, series, u)
				}
				if res.Config.CrossRackMBps <= 0 || res.SimulatedTime <= 0 {
					return // single-rack run: no spine to bound
				}
				capacity := res.Config.CrossRackMBps * 1e6 * float64(res.SimulatedTime) / 1e9
				if float64(delivered) > capacity {
					t.Errorf("%s/%s: spine delivered %d bytes in %dns, over the %.0f-byte capacity of a %v MB/s link",
						id, series, delivered, res.SimulatedTime, capacity, res.Config.CrossRackMBps)
				}
			}}
			if _, err := ByID(id, tiny, opt); err != nil {
				t.Fatalf("ByID(%q): %v", id, err)
			}
			if runs == 0 {
				t.Fatalf("%s: OnResult saw no runs", id)
			}
		})
	}
}
