// Package eventlabel implements the rackvet analyzer that makes
// Result.EventsByHandler accounting provably complete.
//
// The engine's per-handler event counters (Engine.ProcessedBy, surfaced
// as Result.EventsByHandler) bucket every event under its schedule-time
// label; events scheduled through the unlabeled At/After variants all
// collapse into the "other" bucket, silently eroding the tail-attribution
// and per-handler breakdowns the observability layer promises. PR 7 had
// to hunt down core's one unlabeled scenario driver by hand; this check
// makes that audit mechanical: in simulation packages every event must be
// scheduled with a non-empty label — through AtNamed/AfterNamed, or in
// the typed-handler form AtHandler/AfterHandler with a Label interned by
// Engine.Intern. For the typed form the check follows the label to where
// it is made: Intern with the empty label, and the zero sim.Label{}
// passed straight to AtHandler/AfterHandler, are findings; a Label held
// in a variable or field is assumed to come from a checked Intern.
//
// The sim package's own scheduling forwarders (At/After delegate with
// the zero Label, defining the "other" bucket; the Named and Handler
// variants pass their label through) are the one structural exemption.
// A deliberate unlabeled schedule elsewhere can carry a
// `//rackvet:unlabeled <why>` directive, which the golden suite
// exercises; the real tree has none.
package eventlabel

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"rackblox/internal/analysis"
)

// Analyzer requires labeled event scheduling in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "eventlabel",
	Doc: "require Engine.AtNamed/AfterNamed or AtHandler/AfterHandler with a non-empty " +
		"label instead of At/After in simulation packages so EventsByHandler accounting " +
		"stays complete",
	Applies: applies,
	Run:     run,
}

func applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "rackblox/internal/")
}

// engineForwarder reports whether decl is one of sim.Engine's own
// scheduling methods — the definitions being enforced, which must
// themselves be allowed to delegate.
func engineForwarder(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl == nil || decl.Recv == nil || !analysis.PkgPathIs(pass.Pkg, "rackblox/internal/sim") {
		return false
	}
	switch decl.Name.Name {
	case "At", "After", "AtNamed", "AfterNamed", "AtHandler", "AfterHandler":
		return true
	}
	return false
}

// emptyString reports whether e is a compile-time constant "".
func emptyString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == ""
}

// zeroLabel reports whether e is the literal zero sim.Label{}.
func zeroLabel(pass *analysis.Pass, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) > 0 {
		return false
	}
	named, ok := pass.TypesInfo.TypeOf(lit).(*types.Named)
	return ok && named.Obj().Name() == "Label" && analysis.PkgPathIs(named.Obj().Pkg(), "rackblox/internal/sim")
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectiveRationales("unlabeled")
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || engineForwarder(pass, decl) {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch m := analysis.EngineMethod(pass.TypesInfo, call); m {
				case "At", "After":
					if pass.Directive(call.Pos(), "unlabeled") {
						return true
					}
					pass.Reportf(call.Pos(),
						"unlabeled Engine.%s call: use %sNamed with a stable handler label so "+
							"EventsByHandler accounting stays complete (//rackvet:unlabeled to opt out)",
						m, m)
				case "AtNamed", "AfterNamed", "Intern":
					// Dynamic labels are assumed meaningful.
					arg := 1
					if m == "Intern" {
						arg = 0
					}
					if len(call.Args) <= arg || !emptyString(pass, call.Args[arg]) ||
						pass.Directive(call.Pos(), "unlabeled") {
						return true
					}
					pass.Reportf(call.Pos(),
						"Engine.%s with empty label counts under \"other\": give the handler a "+
							"stable label (//rackvet:unlabeled to opt out)", m)
				case "AtHandler", "AfterHandler":
					if len(call.Args) < 2 || !zeroLabel(pass, call.Args[1]) ||
						pass.Directive(call.Pos(), "unlabeled") {
						return true
					}
					pass.Reportf(call.Pos(),
						"Engine.%s with the zero sim.Label{} is missing its label and counts under "+
							"\"other\": pass a Label from Engine.Intern (//rackvet:unlabeled to opt out)", m)
				}
				return true
			})
		}
	}
	return nil
}
