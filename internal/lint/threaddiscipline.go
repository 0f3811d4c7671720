package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"denovosync/internal/lint/analysis"
)

// ThreadDiscipline forbids native Go concurrency inside a simulated
// machine: the workload packages and the simulator core that runs them.
// Workload code runs *inside* the simulation: every cross-thread
// interaction must flow through the simulated thread API (cpu.Thread
// loads/stores, simulated locks/barriers) so that it is timed, ordered by
// the event engine, and visible to the coherence protocols. A native
// goroutine, channel, or sync primitive would communicate through the Go
// runtime instead — untimed, invisible to the protocol under test, and
// racy against the engine (exactly the class of bug once fixed by hand
// in a kernel's prefill path). The machine itself — engine, network,
// memory, caches, controllers, allocator, the thread layer
// (internal/cpu) and the assembly (internal/machine) — is in scope too:
// one engine drives every tile on one goroutine, and threads are
// coroutines stepped from engine events, so a goroutine, channel or lock
// there would only add a handoff or a second schedule. Independent
// machines may still run concurrently from the layers above. Flagged: go
// statements, channel types and operations, select statements, and
// imports of sync or sync/atomic.
var ThreadDiscipline = &analysis.Analyzer{
	Name: "threaddiscipline",
	Doc: "simulated-machine packages must not use go/chan/select/sync: all " +
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
					"import of %s in a simulated-machine package: use the simulated locks/barriers instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a simulated-machine package: spawn simulated threads via the machine instead")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement in a simulated-machine package: native channel communication bypasses the simulated memory system")
			case *ast.ChanType:
				pass.Reportf(n.Pos(),
					"channel type in a simulated-machine package: communicate through simulated memory instead")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in a simulated-machine package: communicate through simulated memory instead")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive in a simulated-machine package: communicate through simulated memory instead")
				}
			case *ast.CallExpr:
				// make(chan T) without a literal chan type in scope still
				// carries one in the argument, caught by the ChanType case;
				// nothing extra needed here. But flag close(ch).
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "channel close in a simulated-machine package")
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
