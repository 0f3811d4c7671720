package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/proto"
)

// panicky runs a 16-core workload whose thread on core 5 panics after a
// few operations while the other threads keep running.
func panicky(t *testing.T, p Params) error {
	t.Helper()
	space := alloc.New()
	counter := space.AllocAligned(1, space.Region("counter"))
	m := New(p, DeNovoSync, space)
	_, err := m.Run("panicky", func(th *cpu.Thread) {
		for i := 0; i < 20; i++ {
			th.FetchAdd(counter, 1)
			th.Compute(10)
			if th.ID == 5 && i == 3 {
				panic("injected workload bug")
			}
		}
	})
	return err
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base: workers released by a finished run exit asynchronously.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestThreadPanicIsError: a panic in a workload thread fails the run
// with a structured *ThreadPanicError instead of killing the process.
func TestThreadPanicIsError(t *testing.T) {
	err := panicky(t, small16())
	var tp *ThreadPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("run error = %v, want a *ThreadPanicError", err)
	}
	if tp.Core != 5 || tp.Value != "injected workload bug" {
		t.Errorf("panic attributed to core %d with value %v, want core 5 and the injected value", tp.Core, tp.Value)
	}
	if tp.Cycle == 0 {
		t.Error("panic cycle not recorded")
	}
	if !strings.Contains(string(tp.Stack), "panicky") {
		t.Errorf("stack does not reach the workload body:\n%s", tp.Stack)
	}
}

// TestAbortedRunsReleaseGoroutines: panicking, watchdog-aborted and
// deadlocked runs must unwind their suspended threads, so repeated
// failures do not pile up goroutines.
func TestAbortedRunsReleaseGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	const runs = 5
	for i := 0; i < runs; i++ {
		if err := panicky(t, small16()); err == nil {
			t.Fatal("panicking run succeeded")
		}
		wd := small16()
		wd.WatchdogCycles = 1000
		if err := waitForever(wd); !errors.As(err, new(*WatchdogError)) {
			t.Fatalf("watchdog run error = %v, want a *WatchdogError", err)
		}
		if err := waitForever(small16()); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("stuck run error = %v, want a deadlock report", err)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after %d aborted runs of each kind, want at most the %d before", n, runs, base)
	}
}

// waitForever runs threads that each wait for a disturbance of a private
// line nobody touches.
func waitForever(p Params) error {
	space := alloc.New()
	flags := space.AllocAligned(p.Cores*proto.WordsPerLine, space.Region("flags"))
	m := New(p, DeNovoSync, space)
	_, err := m.Run("wait", func(th *cpu.Thread) {
		flag := flags + proto.Addr(th.ID*proto.LineBytes)
		th.Compute(100)
		th.WaitDisturb(flag, th.Epoch(flag))
	})
	return err
}
