package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain turns a re-executed test binary into rackbench: when
// RACKBENCH_MAIN_ARGS is set, the process runs main with those
// arguments (separated by \x1f) instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("RACKBENCH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"rackbench"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rackbench runs this test binary as the rackbench command and returns
// its combined output.
func rackbench(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RACKBENCH_MAIN_ARGS="+strings.Join(args, "\x1f"))
	return cmd.CombinedOutput()
}

// TestScenarioRejectsRedundancy runs rackbench with both -scenario and
// -redundancy: the combination must exit with usage status 2 and say
// why, rather than silently run the scenario and drop -redundancy.
func TestScenarioRejectsRedundancy(t *testing.T) {
	out, err := rackbench("-scenario", "fail-server:0@120ms", "-redundancy", "lrc4,2", "-scale", "0.05")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rackbench -scenario … -redundancy …: err %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-scenario and -redundancy cannot be combined") {
		t.Errorf("output does not explain the rejection:\n%s", out)
	}
}

// TestRedundancyRunIsTraced checks that -redundancy goes through the
// same instrumented run as the experiments: -trace writes a Chrome
// trace of its run.
func TestRedundancyRunIsTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if out, err := rackbench("-redundancy", "rs4,2", "-scale", "0.1", "-trace", path); err != nil {
		t.Fatalf("rackbench -redundancy rs4,2 -trace: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestPaperFigureRecordsRuns checks that a paper figure lands one -json
// run record per simulated run: fig21 runs VDC and RackBlox on software-
// and hardware-isolated vSSDs.
func TestPaperFigureRecordsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if out, err := rackbench("-exp", "fig21", "-scale", "0.1", "-json", path); err != nil {
		t.Fatalf("rackbench -exp fig21 -json: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 4 {
		t.Fatalf("%d run records, want 4: %+v", len(report.Runs), report.Runs)
	}
	for _, r := range report.Runs {
		if r.Experiment != "fig21" || r.Events == 0 || len(r.EventsByHandler) == 0 {
			t.Errorf("run record %+v: want experiment fig21 with event counts", r)
		}
	}
}
