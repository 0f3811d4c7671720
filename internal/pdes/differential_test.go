// Package pdes_test keeps the differential battery that certified the
// retired parallel (PDES) engine: for every kernel x protocol cell it
// checked that a partitioned run reproduced the serial run's determinism
// fingerprint bit-for-bit. The engine is gone; the certified fingerprints
// are kept in testdata/battery_golden.txt, and the battery now checks that
// the serial machine, the only machine, still reproduces every one of them.
package pdes_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/battery_golden.txt")

const goldenPath = "testdata/battery_golden.txt"

// jobSpec is one cell of the differential matrix.
type jobSpec struct {
	kernel string
	prot   machine.Protocol
	sigs   bool // DeNovoSync with DeNovoND-style write signatures
}

// configName labels the protocol variant in test names and the golden file.
func (j jobSpec) configName() string {
	if j.sigs {
		return "DSsig"
	}
	switch j.prot {
	case machine.MESI:
		return "M"
	case machine.DeNovoSync0:
		return "DS0"
	default:
		return "DS"
	}
}

func (j jobSpec) name() string { return j.kernel + "/" + j.configName() }

// runJob executes one kernel on a fresh 16-core machine with the battery's
// fixed seed and iteration count.
func runJob(t *testing.T, j jobSpec) *stats.RunStats {
	t.Helper()
	p := machine.Params16()
	p.Seed = 7
	p.Signatures = j.sigs
	k, ok := kernels.ByID(j.kernel)
	if !ok {
		t.Fatalf("unknown kernel %s", j.kernel)
	}
	m := machine.New(p, j.prot, alloc.New())
	rs, err := kernels.Run(k, m, kernels.Config{Iters: 4, EqChecks: -1, UseSignatures: j.sigs})
	if err != nil {
		t.Fatalf("%s: %v", j.name(), err)
	}
	return rs
}

// fullMatrix is all 24 kernels x {M, DS0, DS, DSsig}.
func fullMatrix() []jobSpec {
	var jobs []jobSpec
	for _, k := range kernels.All() {
		jobs = append(jobs,
			jobSpec{k.ID, machine.MESI, false},
			jobSpec{k.ID, machine.DeNovoSync0, false},
			jobSpec{k.ID, machine.DeNovoSync, false},
			jobSpec{k.ID, machine.DeNovoSync, true},
		)
	}
	return jobs
}

// shortMatrix trims to three synchronization shapes for -short runs.
func shortMatrix() []jobSpec {
	var jobs []jobSpec
	for _, k := range []string{"tatas-counter", "nb-m-s-queue", "bar-tree"} {
		jobs = append(jobs,
			jobSpec{k, machine.MESI, false},
			jobSpec{k, machine.DeNovoSync0, false},
			jobSpec{k, machine.DeNovoSync, false},
			jobSpec{k, machine.DeNovoSync, true},
		)
	}
	return jobs
}

// readGolden parses "kernel/config<TAB>fingerprint" lines.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, fp, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = fp
	}
	return want
}

// TestDifferentialBattery: every cell of the kernel x protocol matrix must
// reproduce the fingerprint the PDES battery certified for it.
func TestDifferentialBattery(t *testing.T) {
	jobs := fullMatrix()
	if testing.Short() && !*updateGolden {
		jobs = shortMatrix()
	}
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t)
		if len(want) != len(fullMatrix()) {
			t.Fatalf("golden has %d cells, matrix has %d", len(want), len(fullMatrix()))
		}
	}
	var mu sync.Mutex
	got := make(map[string]string)
	if *updateGolden {
		// Cleanup runs once every parallel subtest has finished.
		t.Cleanup(func() {
			if !t.Failed() {
				writeGolden(t, got)
			}
		})
	}
	for _, j := range jobs {
		j := j
		t.Run(j.name(), func(t *testing.T) {
			t.Parallel()
			fp := stats.Fingerprint(runJob(t, j))
			if *updateGolden {
				mu.Lock()
				got[j.name()] = fp
				mu.Unlock()
				return
			}
			if w, ok := want[j.name()]; !ok {
				t.Errorf("no golden fingerprint for %s", j.name())
			} else if fp != w {
				t.Errorf("diverged from the certified fingerprint:\nwant: %s\ngot:  %s", w, fp)
			}
		})
	}
}

// writeGolden records the fingerprints sorted by cell name.
func writeGolden(t *testing.T, got map[string]string) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s\t%s\n", n, got[n])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
