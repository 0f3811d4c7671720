package pdes

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"denovosync/internal/sim"
)

// runWindow runs LP lp's engine up to horizon, converting a panic into
// the returned error. A panic value that is an error, such as the
// machine's thread-panic error, is returned as is; anything else,
// runtime errors included, is wrapped with the panicking stack. Every
// released LP still reports to the barrier, so the coordinator never
// waits on a dead worker, and the run stops there.
func (s *Scheduler) runWindow(lp int, horizon sim.Cycle, budget uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			_, rt := p.(runtime.Error)
			if e, ok := p.(error); ok && !rt {
				err = e
				return
			}
			err = fmt.Errorf("pdes: LP %d panicked: %v\n%s", lp, p, debug.Stack())
		}
	}()
	s.Engines[lp].RunUntilBudget(horizon, budget)
	return nil
}
