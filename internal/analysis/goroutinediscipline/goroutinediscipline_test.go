package goroutinediscipline_test

import (
	"testing"

	"rackblox/internal/analysis/analysistest"
	"rackblox/internal/analysis/goroutinediscipline"
)

// TestGoroutineDiscipline exercises `go` statements in internal/sim,
// including a worker-pool file (findings: the engine package has no
// sanctioned file), in another internal package (findings, including
// inside nested closures), and the _test.go allowlist.
func TestGoroutineDiscipline(t *testing.T) {
	analysistest.Run(t, goroutinediscipline.Analyzer,
		"rackblox/internal/sim",
		"rackblox/internal/demo",
	)
}
