package experiments

import (
	"testing"

	"rackblox/internal/core"
)

// TestEveryRunReportedOnce pins the run shell: every simulated run of
// every experiment reaches OnResult exactly once, under the experiment's
// own id and a label unique within it. The counts are the distinct cells
// each experiment runs — the YCSB-mix figures run their (system × mix)
// grid once across both panels (4 systems × 7 mixes = 28), the BenchBase
// figures their (system × workload) grid (4 × 5 = 20) — so a figure that
// runs a cell twice, or a run that bypasses the shell, fails here.
func TestEveryRunReportedOnce(t *testing.T) {
	want := map[string]int{
		"table2": 0, "fig9": 28, "fig10": 28, "fig11": 28, "fig12": 28,
		"fig13": 20, "fig14": 20, "fig15": 28, "fig16": 24, "fig17": 12,
		"fig18": 12, "fig19": 18, "fig20": 54, "fig21": 4, "fig22": 0,
		"fig23": 0, "predictor": 0, "gcablation": 2, "figec": 6, "figmr": 4,
		"figrl": 5, "figsc": 5, "figslo": 3, "figra": 5,
	}
	if len(want) != len(registry) {
		t.Fatalf("want lists %d experiments, registry %d", len(want), len(registry))
	}
	for _, e := range registry {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			n, ok := want[e.id]
			if !ok {
				t.Fatalf("no expected run count for %q", e.id)
			}
			seen := make(map[string]bool)
			opt := Options{OnResult: func(id, series string, res *core.Result) {
				if id != e.id {
					t.Errorf("run %q reported under id %q", series, id)
				}
				if seen[series] {
					t.Errorf("label %s/%s reported twice", id, series)
				}
				seen[series] = true
			}}
			if _, err := ByID(e.id, tiny, opt); err != nil {
				t.Fatal(err)
			}
			if len(seen) != n {
				t.Errorf("%d distinct runs reported, want %d", len(seen), n)
			}
		})
	}
}
