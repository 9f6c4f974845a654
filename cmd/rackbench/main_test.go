package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestScenarioRejectsRedundancy runs the rackbench binary (this test
// binary re-entering main) with both -scenario and -redundancy: the
// combination must exit with usage status 2 and say why, rather than
// silently run the scenario and drop -redundancy.
func TestScenarioRejectsRedundancy(t *testing.T) {
	if args := os.Getenv("RACKBENCH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"rackbench"}, strings.Split(args, "\x1f")...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestScenarioRejectsRedundancy$")
	cmd.Env = append(os.Environ(), "RACKBENCH_MAIN_ARGS="+strings.Join([]string{
		"-scenario", "fail-server:0@120ms", "-redundancy", "lrc4,2", "-scale", "0.05",
	}, "\x1f"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rackbench -scenario … -redundancy …: err %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-scenario and -redundancy cannot be combined") {
		t.Errorf("output does not explain the rejection:\n%s", out)
	}
}
