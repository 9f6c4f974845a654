// Package goroutinediscipline implements the rackvet analyzer that keeps
// concurrency out of the simulator.
//
// Every run executes on one single-threaded sim.Engine, and bit-exact
// replay rests on that: events fire in (time, sequence) order and
// nothing else runs beside them. A `go` statement anywhere in internal/
// would reintroduce scheduler interleaving the replay tests cannot see
// until it has already corrupted a result.
//
// The check covers all of internal/, not only the event-path packages:
// observers, codecs, and tooling helpers are called from the event path,
// so none of them may smuggle in concurrency either. Tests are exempt —
// they own their goroutines and the race detector watches them. There
// is deliberately no directive escape hatch and no sanctioned file.
package goroutinediscipline

import (
	"go/ast"
	"strings"

	"rackblox/internal/analysis"
)

// Analyzer rejects `go` statements in non-test code under internal/.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinediscipline",
	Doc: "forbid `go` statements in non-test code under internal/: " +
		"the simulator is single-threaded and goroutine interleaving breaks bit-exact replay",
	Applies: applies,
	Run:     run,
}

func applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "rackblox/internal/")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"goroutine spawned in internal/: the simulator is single-threaded; "+
						"goroutine interleaving breaks bit-exact replay")
			}
			return true
		})
	}
	return nil
}
