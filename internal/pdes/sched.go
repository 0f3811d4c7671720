package pdes

import (
	"fmt"

	"denovosync/internal/sim"
)

// defaultBudget caps the events one LP dispatches inside a single window:
// a zero-delay event storm that never advances time cannot pin an LP (and
// with it the barrier) forever. Windows that hit the cap simply resume in
// the next round at the same floor.
const defaultBudget = 1 << 16

// Scheduler drives one engine per logical process through conservative
// time windows. Each round the coordinator drains the mailboxes, computes
// the global floor tmin over all pending events, and releases every LP to
// run [.., tmin+Lookahead-1] concurrently; the lookahead bound guarantees
// no message sent during the round can arrive inside it.
type Scheduler struct {
	// Engines holds one engine per LP (index = LP id).
	Engines []*sim.Engine
	// Exchange is the mailbox router wired into the network.
	Exchange *Exchange
	// Lookahead is the window width: the minimum cross-LP message latency
	// (one mesh hop). Must be >= 1.
	Lookahead sim.Cycle
	// Budget caps events per LP per window (0 = defaultBudget).
	Budget uint64
	// EventLimit aborts the run when total dispatched events exceed it
	// (0 = unlimited) — the parallel analogue of the serial run cap.
	EventLimit uint64
	// TickPeriod, when > 0, runs OnTick at every multiple of the period —
	// the watchdog replication hook. The serial machine's watchdog is a
	// recurring event on the one engine; here the coordinator caps each
	// window at the next tick boundary and runs the check at the barrier,
	// which observes exactly the events-before-the-tick state the serial
	// tick would.
	TickPeriod sim.Cycle
	// OnTick runs at each tick barrier; returning true stops the run.
	// FinalTick: the serial watchdog leaves one last pending tick that
	// fires while the queue drains after every thread finished; Run calls
	// OnTick once more after the queues empty to mirror it.
	OnTick func() bool

	// Ticks counts OnTick activations (the serial machine adds them to its
	// event total: serial ticks are real engine events).
	Ticks uint64
	// Windows counts completed rounds (diagnostics).
	Windows uint64

	start []chan sim.Cycle
	done  chan error
}

// Run executes rounds until every queue and mailbox is empty, OnTick
// requests a stop, or the event limit trips (returned as an error). A
// panic inside a window — a workload thread's or a controller's — ends
// the run at that window's barrier and comes back as the error too (see
// runWindow), on a worker goroutine as on the inline path.
func (s *Scheduler) Run() error {
	if s.Lookahead < 1 {
		return fmt.Errorf("pdes: lookahead must be >= 1, got %d", s.Lookahead)
	}
	if len(s.Engines) == 0 || s.Exchange == nil {
		return fmt.Errorf("pdes: scheduler not wired")
	}
	budget := s.Budget
	if budget == 0 {
		budget = defaultBudget
	}

	// One persistent worker per LP: the channel handoffs publish engine
	// state to the worker at release and back to the coordinator at the
	// barrier, so engines are only ever touched by one goroutine at a time.
	s.start = make([]chan sim.Cycle, len(s.Engines))
	s.done = make(chan error, len(s.Engines))
	for i := range s.Engines {
		s.start[i] = make(chan sim.Cycle)
		go func(lp int, start chan sim.Cycle) {
			for horizon := range start {
				s.done <- s.runWindow(lp, horizon, budget)
			}
		}(i, s.start[i])
	}
	defer func() {
		for _, c := range s.start {
			close(c)
		}
	}()

	nextTick := sim.Cycle(0)
	if s.TickPeriod > 0 {
		nextTick = s.TickPeriod
	}
	var total uint64
	for {
		// Barrier section: no worker is running.
		for lp := range s.Engines {
			s.Exchange.drainInto(lp)
		}
		tmin := sim.Cycle(0)
		any := false
		total = 0
		for _, eng := range s.Engines {
			total += eng.Executed
			if t, ok := eng.NextEventTime(); ok && (!any || t < tmin) {
				tmin, any = t, true
			}
		}
		if s.EventLimit > 0 && total >= s.EventLimit {
			return fmt.Errorf("pdes: event limit exceeded (%d events)", total)
		}
		if !any {
			// Queues drained. The serial watchdog's final pending tick
			// fires during the drain; mirror it.
			if s.TickPeriod > 0 && s.OnTick != nil {
				s.Ticks++
				s.OnTick()
			}
			return nil
		}
		if nextTick > 0 && tmin >= nextTick {
			// Every event before the tick boundary has dispatched: run the
			// progress check the serial tick event would run at this cycle.
			s.Ticks++
			if s.OnTick != nil && s.OnTick() {
				return nil
			}
			nextTick += s.TickPeriod
			continue
		}
		horizon := tmin + s.Lookahead - 1
		if nextTick > 0 && horizon >= nextTick {
			horizon = nextTick - 1
		}
		// Release only LPs with work inside the window. An idle LP's
		// clock lags harmlessly: arrivals drained at a later barrier
		// always carry at > that barrier's horizon, and RunUntilBudget
		// catches the clock up when the LP next has work. With a single
		// active LP (the common shape under lock contention) the window
		// runs inline on the coordinator — no handoffs at all.
		released := 0
		single := -1
		for lp, eng := range s.Engines {
			if t, ok := eng.NextEventTime(); ok && t <= horizon {
				if released == 0 {
					single = lp
				} else {
					single = -1
				}
				released++
			}
		}
		var err error
		if single >= 0 {
			err = s.runWindow(single, horizon, budget)
		} else {
			for lp, eng := range s.Engines {
				if t, ok := eng.NextEventTime(); ok && t <= horizon {
					s.start[lp] <- horizon
				}
			}
			for i := 0; i < released; i++ {
				if e := <-s.done; e != nil && err == nil {
					err = e
				}
			}
		}
		if err != nil {
			return err
		}
		s.Windows++
	}
}
