package pdes_test

import (
	"errors"
	"strings"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/machine"
	"denovosync/internal/noc"
	"denovosync/internal/pdes"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// fourLPs wires a bare scheduler over a 4x4 mesh split into 4 LPs.
func fourLPs(t *testing.T) *pdes.Scheduler {
	t.Helper()
	part, err := pdes.NewPartition(noc.Mesh{W: 4, H: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sim.Engine, 4)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	return &pdes.Scheduler{Engines: engines, Exchange: pdes.NewExchange(part, engines), Lookahead: 3}
}

// TestWindowPanicIsError: a panic inside a window comes back from Run as
// an error, whether the window ran inline (one active LP) or on the LP
// workers (several active LPs). An error-valued panic is returned as is.
func TestWindowPanicIsError(t *testing.T) {
	s := fourLPs(t)
	s.Engines[2].Schedule(5, func() { panic("inline boom") })
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "LP 2 panicked: inline boom") {
		t.Fatalf("inline window: Run = %v, want the LP 2 panic", err)
	}

	s = fourLPs(t)
	sentinel := errors.New("worker boom")
	for _, eng := range s.Engines {
		eng.Schedule(5, func() {})
	}
	s.Engines[1].Schedule(5, func() { panic(sentinel) })
	if err := s.Run(); err != sentinel {
		t.Fatalf("worker window: Run = %v, want the panicking error itself", err)
	}
}

// TestThreadPanicAtLPs4: a workload thread panic in a partitioned
// machine fails the run with the same *machine.ThreadPanicError as the
// serial machine, both when one thread panics and when every thread
// panics in the same window.
func TestThreadPanicAtLPs4(t *testing.T) {
	for _, everyone := range []bool{false, true} {
		p := machine.Params16()
		p.LPs = 4
		space := alloc.New()
		lines := space.AllocAligned(p.Cores*proto.WordsPerLine, space.Region("private"))
		m := machine.New(p, machine.DeNovoSync, space)
		_, err := m.Run("panicky", func(th *cpu.Thread) {
			mine := lines + proto.Addr(th.ID*proto.LineBytes)
			for i := 0; i < 8; i++ {
				th.FetchAdd(mine, 1)
				if i == 3 && (everyone || th.ID == 9) {
					panic("injected workload bug")
				}
			}
		})
		var tp *machine.ThreadPanicError
		if !errors.As(err, &tp) || tp.Value != "injected workload bug" {
			t.Fatalf("everyone=%t: run error = %v, want a *machine.ThreadPanicError", everyone, err)
		}
		if !everyone && tp.Core != 9 {
			t.Errorf("panic attributed to core %d, want 9", tp.Core)
		}
	}
}
