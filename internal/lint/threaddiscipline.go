package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"denovosync/internal/lint/analysis"
)

// ThreadDiscipline forbids native Go concurrency in workload packages.
// Workload code runs *inside* the simulation: every cross-thread
// interaction must flow through the simulated thread API (cpu.Thread
// loads/stores, simulated locks/barriers) so that it is timed, ordered by
// the event engine, and visible to the coherence protocols. A native
// goroutine, channel, or sync primitive would communicate through the Go
// runtime instead — untimed, invisible to the protocol under test, and
// racy against the engine (exactly the class of bug PR 1 fixed by hand in
// a kernel's prefill path). The thread layer itself (internal/cpu) is in
// scope too: it runs threads as coroutines stepped from engine events, so
// a goroutine or channel there would reintroduce the scheduler handoff
// it replaced. Flagged: go statements, channel types and operations,
// select statements, and imports of sync or sync/atomic.
var ThreadDiscipline = &analysis.Analyzer{
	Name: "threaddiscipline",
	Doc: "workload packages must not use go/chan/select/sync: all " +
		"cross-thread communication flows through the simulated thread API",
	Run: runThreadDiscipline,
}

func runThreadDiscipline(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				pass.Reportf(imp.Pos(),
					"import of %s in a workload package: use the simulated locks/barriers instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a workload package: spawn simulated threads via the machine instead")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement in a workload package: native channel communication bypasses the simulated memory system")
			case *ast.ChanType:
				pass.Reportf(n.Pos(),
					"channel type in a workload package: communicate through simulated memory instead")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in a workload package: communicate through simulated memory instead")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive in a workload package: communicate through simulated memory instead")
				}
			case *ast.CallExpr:
				// make(chan T) without a literal chan type in scope still
				// carries one in the argument, caught by the ChanType case;
				// nothing extra needed here. But flag close(ch).
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "channel close in a workload package")
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
