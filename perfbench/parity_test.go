package main

import (
	"testing"

	"denovosync/internal/exp"
	"denovosync/internal/stats"
)

// TestExecutorParity pins the benchmark's executor to the path paperbench
// takes: at seed 1, every run of every workload's plans must produce the
// same stats.Fingerprint through the executor as through exp.Execute.
func TestExecutorParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark workload twice")
	}
	x := newExecutor(1)
	for name, figs := range workloads {
		for _, fs := range figs {
			plan, err := exp.FigurePlan(fs.name, fs.cores, exp.Options{Scale: fs.scale})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := (&exp.Engine{Workers: workers}).Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := (&exp.Engine{Workers: workers, Executor: x.execute}).Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			x.take()
			for _, r := range plan.Runs {
				w, g := want[r.Key()], got[r.Key()]
				if w.Status != exp.StatusOK || g.Status != exp.StatusOK {
					t.Errorf("%s %s: status exp.Execute %s (%s), executor %s (%s)", name, r, w.Status, w.Error, g.Status, g.Error)
					continue
				}
				if fw, fg := stats.Fingerprint(w.Stats), stats.Fingerprint(g.Stats); fw != fg {
					t.Errorf("%s %s: fingerprints differ\nexp.Execute: %s\nexecutor:    %s", name, r, fw, fg)
				}
			}
		}
	}
}
