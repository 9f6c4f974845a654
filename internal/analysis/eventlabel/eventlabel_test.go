package eventlabel_test

import (
	"testing"

	"rackblox/internal/analysis/analysistest"
	"rackblox/internal/analysis/eventlabel"
)

// TestEventlabel exercises unlabeled/empty-label findings in the closure
// form, empty-Intern and zero-Label findings in the typed-handler form,
// the dynamic label allowance, the //rackvet:unlabeled escape hatch
// (both placements), the _test.go and cmd/ allowlists, and — by running
// over the fixture sim package itself — the exemption for the engine's
// own forwarders, whose At/After pass the zero Label to AtHandler.
func TestEventlabel(t *testing.T) {
	analysistest.Run(t, eventlabel.Analyzer,
		"rackblox/internal/sim",
		"rackblox/internal/demo",
		"rackblox/cmd/demo",
	)
}
