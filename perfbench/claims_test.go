package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"denovosync/internal/exp"
	"denovosync/internal/harness"
	"denovosync/internal/machine"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// fig3 builds a one-kernel Figure 3 with the given DS0 and DS execution
// times against a MESI time of 120 cycles.
func fig3(ds0, ds uint64) *harness.Figure {
	row := func(p machine.Protocol, exec, traffic uint64) harness.Row {
		rs := &stats.RunStats{Workload: "double Q", Protocol: p.String(), Cores: 16, ExecTime: sim.Cycle(exec), TotalTraffic: traffic}
		return harness.Row{Workload: "double Q", Protocol: p, Stats: rs}
	}
	return &harness.Figure{ID: "Figure 3 (16c)", Cores: 16, Rows: []harness.Row{
		row(machine.MESI, 120, 100), row(machine.DeNovoSync0, ds0, 50), row(machine.DeNovoSync, ds, 50),
	}}
}

func held(t *testing.T, f *harness.Figure) int {
	t.Helper()
	h, _ := harness.CheckClaims(f, io.Discard)
	return h
}

// TestSumFiguresPools checks that claims on summed figures compare ratios
// of sums: one seed's outlying DS run (1.15x DS0) fails fig3's
// ds-beats-ds0 claim alone, and holds once summed with two ordinary seeds.
func TestSumFiguresPools(t *testing.T) {
	outlier, ordinary := fig3(100, 115), fig3(100, 95)
	if got := held(t, outlier); got != 2 {
		t.Fatalf("outlying seed alone: %d of 3 claims hold, want 2", got)
	}
	sum, err := sumFigures([]*harness.Figure{outlier, ordinary, ordinary})
	if err != nil {
		t.Fatal(err)
	}
	if got := held(t, sum); got != 3 {
		t.Errorf("summed over three seeds: %d of 3 claims hold, want 3", got)
	}
	if ds, ds0 := sum.Rows[2].Stats.ExecTime, sum.Rows[1].Stats.ExecTime; ds != 305 || ds0 != 300 {
		t.Errorf("summed DS, DS0 execution times %d, %d; want 305, 300", ds, ds0)
	}

	if f, err := sumFigures([]*harness.Figure{outlier, nil}); f != nil || err != nil {
		t.Errorf("summing with a missing figure gave %v, %v; want nil, nil", f, err)
	}
	other := fig3(100, 95)
	other.Rows[1], other.Rows[2] = other.Rows[2], other.Rows[1]
	if _, err := sumFigures([]*harness.Figure{outlier, other}); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("summing figures with rows in another order gave error %v", err)
	}
}

// TestSumFiguresKeepsVerdicts pins sumFigures to what the claims read: a
// real figure summed from copies of itself must get, claim by claim, the
// verdict and detail the figure itself gets. That holds only while every
// claim compares execution time and traffic and nothing else.
func TestSumFiguresKeepsVerdicts(t *testing.T) {
	for _, fs := range []figureSpec{{"fig3", 16, 10}, {"fig4", 16, 10}, {"fig5", 16, 10}, {"fig6", 16, 10}, {"fig5", 64, 10}, {"fig7", 0, 10}} {
		plan, err := exp.FigurePlan(fs.name, fs.cores, exp.Options{Scale: fs.scale})
		if err != nil {
			t.Fatal(err)
		}
		records, _, err := (&exp.Engine{Workers: workers}).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		f, err := exp.Figure(plan, records)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		harness.CheckClaims(f, &want)
		for _, n := range []int{1, 3} {
			figs := make([]*harness.Figure, n)
			for i := range figs {
				figs[i] = f
			}
			sum, err := sumFigures(figs)
			if err != nil {
				t.Fatal(err)
			}
			got.Reset()
			harness.CheckClaims(sum, &got)
			if got.String() != want.String() {
				t.Errorf("%s summed %d times:\n%s\nthe figure itself:\n%s", plan.ID, n, got.String(), want.String())
			}
		}
	}
}
