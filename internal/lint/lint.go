// Package lint hosts simlint: six custom analyzers that statically
// enforce invariants the simulator otherwise only checks at runtime
// (cycle-exact determinism, exhaustive protocol transitions, workload
// thread discipline, centralized latency constants, read-only observer
// hooks, golden-atlas freshness), plus the shared registry,
// package-scope table, and //simlint:allow suppression filter used by
// cmd/simlint and the tests.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"denovosync/internal/lint/analysis"
)

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ExhaustState, Determinism, ThreadDiscipline, CycleHygiene,
		ObserverPurity, AtlasDrift,
	}
}

// ByName returns the analyzer with the given name, or nil. Names are
// matched case-insensitively: analyzer names are all-lowercase by
// convention, and a capitalized spelling ("ExhaustState") used to fall
// through to nil as silently as a typo, making -analyzer filters
// no-ops.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if strings.EqualFold(a.Name, name) {
			return a
		}
	}
	return nil
}

// Names returns the analyzer names in reporting order (for error
// messages listing the valid values).
func Names() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// scopes maps each analyzer to the repo-relative package paths it runs
// on. A nil entry means the whole tree. The scope is a property of what
// each invariant protects: determinism and cycle hygiene guard the
// simulator core (the machine/params layer legitimately reads wall time
// for reports and centralizes latency numbers); thread discipline guards
// code that runs *inside* the simulation. Orchestration layers above the
// simulator — internal/exp, internal/harness, the commands — are
// deliberately outside the determinism scope: wall-clock time (ETAs,
// timeouts) and host parallelism are their job, and every simulation
// they launch is still cycle-exact deterministic inside the boundary.
//
// internal/chaos is the exception among the upper layers: its whole
// point is that a (spec, seed) pair replays bit-identically, so it is
// *inside* the determinism scope — explicitly seeded generators
// (sim.NewRNG, rand.New(rand.NewSource(seed))) are fine, the global
// math/rand source and time.Now are not, and any order-insensitive map
// range needs a per-site //simlint:allow with a reason (no blanket
// suppressions). It stays outside the cycle-hygiene scope for the same
// reason internal/exp does: it is a config-bearing layer (jitter
// bounds, watchdog budgets) above the latency constants.
var scopes = map[string][]string{
	ExhaustState.Name: nil,
	// internal/fuzz joins chaos inside the determinism scope: a campaign
	// is byte-reproducible by contract (candidate generation, acceptance,
	// and corpus contents are a pure function of seed + journal), so the
	// same rules apply — seeded generators only, no wall clock, no
	// order-sensitive map ranges without a per-site justification.
	// internal/lint/lpisolate is in the determinism scope for the same
	// reason the atlas is golden-gated: the ownership atlas it emits is
	// checked-in JSON compared byte-for-byte in CI, so its extraction
	// must be a pure function of the source tree — sorted iterations
	// only, no wall clock.
	Determinism.Name: {
		"internal/sim", "internal/cache", "internal/mesi", "internal/denovo",
		"internal/noc", "internal/mem", "internal/cpu", "internal/stats",
		"internal/chaos", "internal/fuzz", "internal/lint/lpisolate",
	},
	CycleHygiene.Name: {
		"internal/sim", "internal/cache", "internal/mesi", "internal/denovo",
		"internal/noc", "internal/mem", "internal/cpu", "internal/stats",
	},
	ThreadDiscipline.Name: {
		"internal/kernels", "internal/apps", "internal/locks",
		"internal/barrier", "internal/lockfree",
	},
	// observerpurity guards the read-only hook surfaces: the coverage
	// observers living inside the protocol packages and the invariant
	// monitor in chaos (it further narrows to observe.go / coverage.go /
	// monitor.go by file name).
	ObserverPurity.Name: {
		"internal/mesi", "internal/denovo", "internal/chaos",
	},
	// atlasdrift compares the protocol packages against their checked-in
	// golden transition atlases.
	AtlasDrift.Name: {
		"internal/mesi", "internal/denovo",
	},
}

// InScope reports whether analyzer a applies to the package at the
// repo-relative path (e.g. "internal/mesi").
func InScope(a *analysis.Analyzer, relPath string) bool {
	paths, ok := scopes[a.Name]
	if !ok {
		return false
	}
	if paths == nil {
		return true
	}
	for _, p := range paths {
		if relPath == p {
			return true
		}
	}
	return false
}

// Suppressed is one diagnostic a //simlint:allow directive silenced,
// with the directive's mandatory reason.
type Suppressed struct {
	Diag   analysis.Diagnostic
	Reason string
}

// Filter drops diagnostics suppressed by a //simlint:allow directive for
// the analyzer: an end-of-line directive suppresses its own line; a
// standalone directive comment suppresses its own line and the line
// below it (the shared scoping rule in BlessedLines). Files must have
// been parsed with parser.ParseComments.
func Filter(fset *token.FileSet, files []*ast.File, a *analysis.Analyzer, diags []analysis.Diagnostic) []analysis.Diagnostic {
	kept, _ := Partition(fset, files, a, diags)
	return kept
}

// Partition splits diagnostics into the kept findings and the ones a
// //simlint:allow directive suppressed (with the directive's reason) —
// the machine-readable output of cmd/simlint -json reports both.
func Partition(fset *token.FileSet, files []*ast.File, a *analysis.Analyzer, diags []analysis.Diagnostic) ([]analysis.Diagnostic, []Suppressed) {
	allowed := BlessedLines(fset, files, func(text string) (string, bool) {
		return AllowDirective(text, a.Name)
	})
	var kept []analysis.Diagnostic
	var supp []Suppressed
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if reason, ok := allowed[pos.Filename][pos.Line]; ok {
			supp = append(supp, Suppressed{Diag: d, Reason: reason})
			continue
		}
		kept = append(kept, d)
	}
	return kept, supp
}
