package lint_test

import (
	"testing"

	"denovosync/internal/lint"
	"denovosync/internal/lint/linttest"
)

func TestExhaustState(t *testing.T) {
	linttest.Run(t, "testdata", lint.ExhaustState, "exhaust", "exhaustx", "exhaustmap")
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata", lint.Determinism, "determinism")
}

func TestThreadDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", lint.ThreadDiscipline, "threads")
}

func TestCycleHygiene(t *testing.T) {
	linttest.Run(t, "testdata", lint.CycleHygiene, "cycles")
}

func TestObserverPurity(t *testing.T) {
	linttest.Run(t, "testdata", lint.ObserverPurity, "observer")
}

func TestByName(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	// Case variants must resolve too: a capitalized spelling used to be
	// silently treated as "no such analyzer".
	if lint.ByName("ExhaustState") != lint.ExhaustState {
		t.Errorf("ByName is case-sensitive: ExhaustState not found")
	}
	if lint.ByName("OBSERVERPURITY") != lint.ObserverPurity {
		t.Errorf("ByName is case-sensitive: OBSERVERPURITY not found")
	}
	if lint.ByName("nosuch") != nil {
		t.Errorf("ByName of an unknown analyzer returned non-nil")
	}
	if len(lint.Names()) != len(lint.Analyzers()) {
		t.Errorf("Names() length mismatch")
	}
}

func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer string
		rel      string
		want     bool
	}{
		{"exhauststate", "internal/mesi", true},
		{"exhauststate", "cmd/simlint", true},
		{"determinism", "internal/sim", true},
		{"determinism", "internal/machine", false}, // params layer reads wall time for reports
		{"cyclehygiene", "internal/denovo", true},
		{"cyclehygiene", "internal/machine", false}, // latencies are declared there
		{"threaddiscipline", "internal/kernels", true},
		{"threaddiscipline", "internal/cpu", true}, // coroutine threads: no go/chan/sync
		// One engine drives every tile of a machine on one goroutine, so
		// the simulator core needs no go/chan/sync either.
		{"threaddiscipline", "internal/sim", true},
		{"threaddiscipline", "internal/noc", true},
		{"threaddiscipline", "internal/mem", true},
		{"threaddiscipline", "internal/cache", true},
		{"threaddiscipline", "internal/mesi", true},
		{"threaddiscipline", "internal/denovo", true},
		{"threaddiscipline", "internal/alloc", true},
		{"threaddiscipline", "internal/machine", true},
		// internal/exp is the host-side orchestration layer: wall-clock
		// progress/timeouts are its job, so only the whole-tree analyzers
		// apply — and no //simlint:allow suppressions are needed there.
		{"exhauststate", "internal/exp", true},
		{"determinism", "internal/exp", false},
		{"cyclehygiene", "internal/exp", false},
		{"threaddiscipline", "internal/exp", false},
		// internal/chaos must replay bit-identically from a (spec, seed)
		// pair, so unlike the other upper layers it *is* in the
		// determinism scope (seeded generators allowed, global
		// math/rand and time.Now banned) — but like internal/exp it is a
		// config-bearing layer, outside cycle hygiene.
		{"determinism", "internal/chaos", true},
		{"cyclehygiene", "internal/chaos", false},
		{"threaddiscipline", "internal/chaos", false},
		{"exhauststate", "internal/chaos", true},
	}
	for _, c := range cases {
		if got := lint.InScope(lint.ByName(c.analyzer), c.rel); got != c.want {
			t.Errorf("InScope(%s, %s) = %t, want %t", c.analyzer, c.rel, got, c.want)
		}
	}
}
