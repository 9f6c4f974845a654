package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// replayJSON runs one experiment and returns its tables as JSON bytes,
// the same encoding cmd/rackbench -json writes.
func replayJSON(t *testing.T, id string) []byte {
	t.Helper()
	b, err := json.Marshal(runTables(t, id, tiny))
	if err != nil {
		t.Fatalf("marshal %q: %v", id, err)
	}
	return b
}

// TestDeterministicReplay runs every registry entry twice with the same
// seed and asserts byte-identical JSON results. This pins the engine's
// (time, insertion-order) event ordering and the per-component RNG fork
// discipline (internal/sim/rng.go): any refactor that lets map iteration
// or wall-clock state leak into the event loop shows up here as a diff.
// The entries cover the paper's figures (the YCSB and BenchBase sweeps,
// the scheduler and device/network grids, the wear and predictor models)
// and the extensions: the recovery-lifecycle paths (figrl: chunk repair,
// switch re-integration, ToR revival with table replay), the scenario
// event driver with server revival and catch-up repair (figsc), the SLO
// repair pacer, whose feedback loop (latency window, AIMD ticks,
// token-lane wakeups) is a rich source of ordering hazards (figslo), and
// the LRC code family — local-parity placement, rack-local XOR repair,
// and per-rack aggregated spine batches (figra). Each entry is its own
// parallel subtest, so under -race the suite also checks that concurrent
// runs share no mutable state.
func TestDeterministicReplay(t *testing.T) {
	for _, e := range registry {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			first := replayJSON(t, e.id)
			second := replayJSON(t, e.id)
			if string(first) != string(second) {
				t.Errorf("%s: two same-seed runs produced different JSON\nfirst:  %.200s\nsecond: %.200s",
					e.id, first, second)
			}
		})
	}
}

// benchFile is the checked-in rackbench -exp all -json report whose
// tables every registry entry must still reproduce.
const benchFile = "../../BENCH_all.json"

// TestBenchTablesUnchanged regenerates every registry entry at the
// report's scale, one parallel subtest each, and compares its
// JSON-encoded tables with the ones recorded in the checked-in BENCH
// file, so a change that moves any simulated figure fails here instead
// of in a manual diff.
func TestBenchTablesUnchanged(t *testing.T) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scale  float64
		Tables []*Table
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("decode %s: %v", benchFile, err)
	}
	want := make(map[string][]byte)
	for _, tb := range report.Tables {
		b, err := json.Marshal(tb)
		if err != nil {
			t.Fatalf("marshal recorded %s: %v", tb.ID, err)
		}
		want[tb.ID] = b
	}
	for _, e := range registry {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			for _, tb := range runTables(t, e.id, Scale(report.Scale)) {
				got, err := json.Marshal(tb)
				if err != nil {
					t.Fatalf("marshal %s: %v", tb.ID, err)
				}
				rec, ok := want[tb.ID]
				if !ok {
					t.Errorf("%s: table %s missing from %s", e.id, tb.ID, benchFile)
					continue
				}
				if string(got) != string(rec) {
					t.Errorf("%s: table %s differs from %s\ngot:  %.300s\nwant: %.300s",
						e.id, tb.ID, benchFile, got, rec)
				}
			}
		})
	}
}

// TestFigMRPlacementSurvivesRackFailure checks the experiment's headline
// claim: under a whole-rack crash, spread placement loses no reads and
// no stripes while paying nonzero metered cross-rack repair bandwidth;
// compact placement loses whole stripe groups.
func TestFigMRPlacementSurvivesRackFailure(t *testing.T) {
	tb := runTables(t, "figmr", tiny)[0]
	if len(tb.Rows) != 4 { // 2 scenarios x 2 placements
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	spread, ok := findRow(tb, "multi-rack (spread)", "rack 0 crash")
	if !ok {
		t.Fatal("missing spread crash row")
	}
	if spread.Values["lost_reads"] != 0 || spread.Values["unrecov_stripes"] != 0 {
		t.Errorf("spread placement lost data under rack failure: %+v", spread.Values)
	}
	if spread.Values["degraded"] <= 0 {
		t.Errorf("spread placement served no degraded reads: %+v", spread.Values)
	}
	if spread.Values["cross_repair_mb"] <= 0 {
		t.Errorf("rack failure moved no cross-rack repair bytes: %+v", spread.Values)
	}
	if u := spread.Values["spine_util"]; u <= 0 || u > 1 {
		t.Errorf("spine utilization %v outside (0,1]", u)
	}
	compact, ok := findRow(tb, "single-rack (compact)", "rack 0 crash")
	if !ok {
		t.Fatal("missing compact crash row")
	}
	if compact.Values["unrecov_stripes"] <= 0 {
		t.Errorf("compact placement reported no data loss under rack failure: %+v", compact.Values)
	}
	if compact.Values["cross_repair_mb"] != 0 {
		t.Errorf("compact placement moved cross-rack repair bytes: %+v", compact.Values)
	}
	for _, x := range []string{"healthy"} {
		for _, series := range []string{"single-rack (compact)", "multi-rack (spread)"} {
			r, ok := findRow(tb, series, x)
			if !ok {
				t.Fatalf("missing row %s / %s", series, x)
			}
			if r.Values["lost_reads"] != 0 || r.Values["unrecov_stripes"] != 0 {
				t.Errorf("%s / %s lost data without a failure: %+v", series, x, r.Values)
			}
		}
	}
}
