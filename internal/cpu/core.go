// Package cpu models the simulated cores and the thread API that workloads
// are written against.
//
// The paper's core model (§5.1): simple, single-issue, in-order, 1 CPI for
// non-memory instructions, blocking loads, non-blocking stores;
// synchronization accesses obey program order (a sync access is not issued
// until the previous one completes).
//
// Each simulated thread is an ordinary Go function run as a coroutine
// (iter.Pull) of its core. The core resumes the thread from an engine
// event; the thread runs natively until it yields its next operation, and
// the engine simulates that operation before resuming the thread again.
// Control passes back and forth without any Go scheduler involvement, so
// exactly one of the two ever runs and simulation remains deterministic
// and race-free. A panic in a thread body reaches the engine's caller as
// a *ThreadPanicError, and Core.Stop unwinds a thread whose run was
// abandoned.
package cpu

import (
	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// Phase labels what part of the workload is executing, driving the
// execution-time breakdown of Figures 3–6: kernel code, the dummy
// computation between kernel iterations, or the closing barrier.
type Phase int

const (
	PhaseKernel Phase = iota
	PhaseNonSynch
	PhaseBarrier
)

func (p Phase) String() string {
	switch p {
	case PhaseKernel:
		return "kernel"
	case PhaseNonSynch:
		return "nonsynch"
	case PhaseBarrier:
		return "barrier"
	default:
		panic("cpu: unknown phase")
	}
}

// opKind names a thread operation. The thread stores the operation's
// operands in its core's op record and yields the kind; the core runs it
// on the engine side.
type opKind uint8

const (
	opRetire         opKind = iota // retire at once (Rendezvous, flush)
	opMem                          // one memory access
	opFence                        // wait for outstanding stores to drain
	opWait                         // WaitDisturb
	opSelfInvalidate               // region self-invalidation, 1 cycle
	opSigAcquire                   // signature acquire, 1 cycle
	opSigRelease                   // signature release, 1 cycle
)

// rmwKind selects the read-modify-write a SyncRMW access applies.
type rmwKind uint8

const (
	rmwCAS rmwKind = iota
	rmwAdd
	rmwTAS
	rmwSwap
)

// opRecord holds the operands of the core's current operation and the
// bookkeeping its completion needs. A thread has at most one blocking
// operation outstanding, so one record per core suffices: it stays valid
// until the operation completes and the thread issues its next one.
type opRecord struct {
	kind    opKind
	access  proto.AccessKind
	addr    proto.Addr
	value   uint64 // store value; CAS new value; FetchAdd delta; Exchange value
	old     uint64 // CAS expected value
	rmw     rmwKind
	epoch   uint64
	regions proto.RegionSet

	start sim.Cycle           // cycle the operation was dispatched
	b0    sim.Cycle           // L1 backoff-stall counter at dispatch
	comp  stats.TimeComponent // bucket waitDone charges
}

// Core is one simulated processor.
type Core struct {
	eng     *sim.Engine
	id      proto.CoreID
	l1      proto.L1Controller
	regions RegionMapper

	// next resumes the thread coroutine until it yields its next
	// operation (false once the body has returned); stop unwinds a
	// suspended thread. Both come from Thread.Spawn.
	next func() (opKind, bool)
	stop func()
	val  uint64 // value complete hands back to the thread

	op    opRecord
	steps []lazyStep // batched lazy steps, replayed before the next op
	step  int        // index of the next step to replay

	// Method values bound once in NewCore, so dispatching an operation
	// allocates no closure.
	issueFn      func()
	accessDoneFn func(uint64)
	waitDoneFn   func()
	stepFn       func()
	rmwFn        proto.RMWOp

	phase    Phase
	time     stats.CoreTime
	retired  uint64
	finished bool
	onFinish func()
}

// NewCore builds core id over l1. onFinish runs when the thread ends.
func NewCore(eng *sim.Engine, id proto.CoreID, l1 proto.L1Controller, onFinish func()) *Core {
	c := &Core{eng: eng, id: id, l1: l1, onFinish: onFinish}
	c.issueFn = c.issue
	c.accessDoneFn = c.accessDone
	c.waitDoneFn = c.waitDone
	c.stepFn = c.runStep
	c.rmwFn = c.applyRMW
	return c
}

// ID returns the core's ID.
func (c *Core) ID() proto.CoreID { return c.id }

// L1 returns the core's cache controller.
func (c *Core) L1() proto.L1Controller { return c.l1 }

// Time returns the core's accumulated cycle breakdown.
func (c *Core) Time() stats.CoreTime { return c.time }

// Finished reports whether the thread has ended.
func (c *Core) Finished() bool { return c.finished }

// Phase returns the core's current workload phase.
func (c *Core) Phase() Phase { return c.phase }

// Retired counts completed thread operations — the progress signal the
// deadlock/livelock watchdog monitors.
func (c *Core) Retired() uint64 { return c.retired }

// Start schedules the core's first service of its thread at cycle 0.
func (c *Core) Start() {
	c.eng.Schedule(0, c.serviceThread)
}

// Stop unwinds the core's thread if it is still suspended in an
// operation (a run aborted by the watchdog, a deadlock, or another
// thread's panic), releasing its coroutine. It is a no-op once the thread
// has finished, and safe to call more than once.
func (c *Core) Stop() {
	if c.stop != nil {
		c.stop()
	}
}

// serviceThread resumes the thread until it issues its next operation (or
// ends), then runs that operation — after replaying any lazy steps the
// thread batched ahead of it.
func (c *Core) serviceThread() {
	kind, ok := c.next()
	if !ok {
		c.finished = true
		c.time.Finish = c.eng.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
		return
	}
	c.op.kind = kind
	c.step = 0
	c.nextStep()
}

// complete hands v back to the thread and resumes it for its next op.
// Called exactly once per operation, from an engine event.
func (c *Core) complete(v uint64) {
	c.retired++
	c.val = v
	c.serviceThread()
}

// nextStep replays batched lazy steps as the exact event chain the eager
// thread API would have produced — one event per step, each scheduled from
// inside its predecessor — then dispatches the operation inside the final
// event. Keeping the schedule-call sequence identical keeps (time, seq)
// dispatch order, and therefore all simulated results, bit-identical to
// unbatched runs.
func (c *Core) nextStep() {
	if c.step == len(c.steps) {
		c.steps = c.steps[:0]
		c.dispatch()
		return
	}
	c.eng.Schedule(c.steps[c.step].delay, c.stepFn)
}

// runStep is the event of one replayed lazy step.
func (c *Core) runStep() {
	s := c.steps[c.step]
	c.step++
	if s.setPhase {
		c.phase = s.phase
	} else {
		c.charge(s.comp, s.delay)
	}
	c.nextStep()
}

// dispatch starts the current operation. Each kind arranges for complete
// to be called exactly once.
func (c *Core) dispatch() {
	op := &c.op
	op.start = c.eng.Now()
	switch op.kind {
	case opRetire:
		c.complete(0)
	case opMem:
		// Sync accesses first drain outstanding stores (fence semantics
		// of the data-race-free model: acquire/release ordering at sync
		// points).
		op.b0 = c.l1.BackoffStallCycles()
		if op.access.IsSync() {
			c.l1.OnWritesDrained(c.issueFn)
		} else {
			c.issue()
		}
	case opFence:
		op.comp = stats.MemStall
		c.l1.OnWritesDrained(c.waitDoneFn)
	case opWait:
		// The wait is charged as compute: architecturally the core is
		// spinning on local cache hits.
		op.comp = stats.Compute
		c.l1.WaitDisturb(op.addr, op.epoch, c.waitDoneFn)
	case opSelfInvalidate:
		c.l1.SelfInvalidate(op.regions)
		c.instruction()
	case opSigAcquire:
		c.l1.SignatureAcquire(op.addr)
		c.instruction()
	case opSigRelease:
		c.l1.SignatureRelease(op.addr)
		c.instruction()
	default:
		panic("cpu: unknown op kind")
	}
}

// instruction completes the current operation after one compute cycle.
func (c *Core) instruction() {
	c.op.comp = stats.Compute
	c.eng.Schedule(1, c.waitDoneFn)
}

// issue hands the current memory access to the L1. The Request is
// allocated per access: an L1 may keep it past Done (a non-blocking store
// drains in the background).
func (c *Core) issue() {
	op := &c.op
	req := &proto.Request{
		Kind:   op.access,
		Addr:   op.addr,
		Value:  op.value,
		Region: c.regionOf(op.addr),
		Done:   c.accessDoneFn,
	}
	if op.access == proto.SyncRMW {
		req.RMW = c.rmwFn
	}
	c.l1.Access(req)
}

// accessDone is every memory access's Request.Done.
func (c *Core) accessDone(v uint64) {
	c.chargeAccess(c.eng.Now()-c.op.start, c.l1.BackoffStallCycles()-c.op.b0)
	c.complete(v)
}

// waitDone completes a stall-type operation, charging its whole duration
// to the bucket dispatch chose.
func (c *Core) waitDone() {
	c.charge(c.op.comp, c.eng.Now()-c.op.start)
	c.complete(0)
}

// applyRMW is every SyncRMW access's Request.RMW. The L1 applies it at
// commit, before Done, while the operation's record is still current.
func (c *Core) applyRMW(cur uint64) (uint64, bool) {
	op := &c.op
	switch op.rmw {
	case rmwCAS:
		if cur == op.old {
			return op.value, true
		}
		return 0, false
	case rmwAdd:
		return cur + op.value, true
	case rmwTAS:
		return 1, true
	default:
		return op.value, true
	}
}

func (c *Core) regionOf(addr proto.Addr) proto.RegionID {
	if c.regions == nil {
		return 0
	}
	return c.regions.RegionOf(addr)
}

// charge attributes n cycles to component comp, redirected by the current
// phase: everything in the non-synch phase lands in NonSynch, and in the
// barrier phase all waiting lands in BarrierStall. Hardware and software
// backoff keep their own buckets in the kernel phase (the paper plots them
// separately).
func (c *Core) charge(comp stats.TimeComponent, n sim.Cycle) {
	if n == 0 {
		return
	}
	switch c.phase {
	case PhaseNonSynch:
		comp = stats.NonSynch
	case PhaseBarrier:
		if comp != stats.HWBackoff && comp != stats.SWBackoff {
			comp = stats.BarrierStall
		}
	}
	c.time.Add(comp, n)
}

// chargeAccess splits a memory access's duration: one L1-access cycle as
// compute (instruction issue), hardware-backoff stall in its own bucket,
// and the rest as memory stall.
func (c *Core) chargeAccess(dur, hwBackoff sim.Cycle) {
	issue := sim.Cycle(1)
	if dur < issue {
		issue = dur
	}
	c.charge(stats.Compute, issue)
	dur -= issue
	if hwBackoff > dur {
		hwBackoff = dur
	}
	c.charge(stats.HWBackoff, hwBackoff)
	c.charge(stats.MemStall, dur-hwBackoff)
}
