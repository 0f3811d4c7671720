package cpu

import (
	"fmt"
	"os"
	"runtime/debug"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// RegionMapper resolves an address to its software region (the
// self-invalidation unit). The allocator implements it.
type RegionMapper interface {
	RegionOf(proto.Addr) proto.RegionID
}

// Thread is the API simulated workload code is written against. All
// methods marked "blocking" suspend the calling thread for the simulated
// duration of the operation. A Thread's methods must only be called from
// its own body (see Spawn).
//
// Pure time-advancing operations (Compute, SWBackoff, SetPhase) are
// batched: they queue locally and are replayed as the exact event chain
// the eager implementation would have produced when the next blocking
// operation (or the end of the body, Now or Epoch) flushes them. This
// skips a coroutine switch each way per batched call without perturbing
// the engine's event sequence, so simulated results are bit-identical to
// unbatched runs.
type Thread struct {
	// ID is the thread index, equal to the core ID it runs on.
	ID int
	// RNG is the thread-private deterministic random source.
	RNG *sim.RNG

	core  *Core
	yield func(opKind) bool
}

// lazyStep is one queued time-advancing operation awaiting flush.
type lazyStep struct {
	delay    sim.Cycle
	comp     stats.TimeComponent
	setPhase bool
	phase    Phase
}

// NewThread binds a workload thread to core. regions may be nil if the
// workload never uses regions.
func NewThread(core *Core, regions RegionMapper, rng *sim.RNG) *Thread {
	core.regions = regions
	return &Thread{ID: int(core.id), RNG: rng, core: core}
}

// ThreadPanicError reports a panic raised by a thread body. It carries
// the panic value and the thread's stack at the panic, so a run that
// trips a workload bug fails with a structured error instead of killing
// the process.
type ThreadPanicError struct {
	Core  int       // core the thread ran on
	Cycle sim.Cycle // simulated cycle at the panic
	Value any       // the value passed to panic
	Stack []byte    // the thread's stack at the panic
}

func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("thread on core %d panicked at cycle %d: %v\n%s", e.Core, e.Cycle, e.Value, e.Stack)
}

// threadStopped is the panic value that unwinds a thread whose core was
// stopped; the coroutine body recovers it.
type threadStopped struct{}

// Spawn makes body the core's thread, run as a coroutine the core resumes
// from its engine events (the core's Start schedules the first resume).
// Batched steps still queued when body returns are replayed before the
// core records its finish time. A panic in body reaches the caller of
// the engine's Run as a *ThreadPanicError.
func (t *Thread) Spawn(body func(*Thread)) {
	c := t.core
	c.next, c.stop = pull(func(yield func(opKind) bool) {
		t.yield = yield
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(threadStopped); ok {
					return
				}
				panic(&ThreadPanicError{Core: t.ID, Cycle: c.eng.Now(), Value: p, Stack: debug.Stack()})
			}
		}()
		body(t)
		t.flush()
	})
}

// do yields the operation whose operands are in the core's op record and
// returns the value the core completes it with. Queued lazy steps are
// replayed first, as a chain of events identical to the one the eager path
// would have scheduled; the operation runs inside the chain's final event,
// exactly where the eager path would have run it. If the core was stopped
// instead, do unwinds the thread.
func (t *Thread) do(kind opKind) uint64 {
	if !t.yield(kind) {
		panic(threadStopped{})
	}
	return t.core.val
}

// flush drains queued lazy steps so the engine state observed by
// non-blocking accessors (Now, Epoch) reflects them.
func (t *Thread) flush() {
	if len(t.core.steps) > 0 {
		t.do(opRetire)
	}
}

// Rendezvous performs one empty operation: the thread yields and is
// resumed within the same cycle, with no event scheduled and no time
// charged. The machine calls it ahead of every workload body. Coroutine
// threads cannot race, so it guards nothing; it stays because its
// retired operation counts toward each core's Retired total (the
// watchdog's progress signal and the cpu.ops metric), and dropping it
// would shift those counts.
func (t *Thread) Rendezvous() {
	t.do(opRetire)
}

// Flush replays any batched time-advancing operations before returning.
// Workload code MUST call it before natively reading or mutating host
// state shared across threads (e.g. the simulated-memory allocator): the
// flush pins that access to the current simulated time, keeping the
// cross-thread interleaving of such accesses identical to an unbatched
// run. Blocking operations flush implicitly.
func (t *Thread) Flush() { t.flush() }

// Now returns the current simulated cycle. (Safe: the engine is blocked
// whenever workload code runs.)
func (t *Thread) Now() sim.Cycle {
	t.flush()
	return t.core.eng.Now()
}

// memOp issues one memory access and blocks until its commit.
func (t *Thread) memOp(kind proto.AccessKind, addr proto.Addr, value uint64) uint64 {
	op := &t.core.op
	op.access, op.addr, op.value = kind, addr, value
	return t.do(opMem)
}

// Load performs a blocking data load.
func (t *Thread) Load(addr proto.Addr) uint64 {
	return t.memOp(proto.DataLoad, addr, 0)
}

// Store performs a non-blocking data store: it returns after the L1
// access; the coherence transaction drains in the background (see Fence).
func (t *Thread) Store(addr proto.Addr, value uint64) {
	t.memOp(proto.DataStore, addr, value)
}

// SyncLoad performs a synchronization (volatile/atomic) load: sequentially
// consistent, ordered after all prior accesses.
func (t *Thread) SyncLoad(addr proto.Addr) uint64 {
	return t.memOp(proto.SyncLoad, addr, 0)
}

// SyncStore performs a synchronization store, blocking until the write is
// globally visible (write atomicity).
func (t *Thread) SyncStore(addr proto.Addr, value uint64) {
	t.memOp(proto.SyncStore, addr, value)
}

// rmw runs an atomic read-modify-write, returning the pre-update value.
func (t *Thread) rmw(addr proto.Addr, kind rmwKind, old, value uint64) uint64 {
	t.core.op.rmw, t.core.op.old = kind, old
	return t.memOp(proto.SyncRMW, addr, value)
}

// CAS atomically compares-and-swaps, reporting success.
func (t *Thread) CAS(addr proto.Addr, old, new uint64) bool {
	return t.rmw(addr, rmwCAS, old, new) == old
}

// FetchAdd atomically adds delta, returning the previous value.
func (t *Thread) FetchAdd(addr proto.Addr, delta uint64) uint64 {
	return t.rmw(addr, rmwAdd, 0, delta)
}

// TestAndSet atomically sets the word to 1, returning the previous value.
func (t *Thread) TestAndSet(addr proto.Addr) uint64 {
	return t.rmw(addr, rmwTAS, 0, 0)
}

// Exchange atomically swaps in value, returning the previous value.
func (t *Thread) Exchange(addr proto.Addr, value uint64) uint64 {
	return t.rmw(addr, rmwSwap, 0, value)
}

// EagerOps disables the lazy batching of Compute/SWBackoff/SetPhase: each
// call flushes its own step at once, paying one coroutine round trip per
// call as the reference implementation did. The two modes must produce
// bit-identical simulations (TestBatchingMatchesEager checks this); set
// CPU_EAGER=1 to bisect a suspected batching bug.
var EagerOps = os.Getenv("CPU_EAGER") != ""

// queue batches one lazy step (or, under EagerOps, runs it at once).
func (t *Thread) queue(s lazyStep) {
	t.core.steps = append(t.core.steps, s)
	if EagerOps {
		t.flush()
	}
}

// Compute burns n cycles of computation (1 CPI instructions). Batched:
// the cycles are charged and the clock advanced when the next blocking
// operation flushes the queue.
func (t *Thread) Compute(n sim.Cycle) {
	if n == 0 {
		return
	}
	t.queue(lazyStep{delay: n, comp: stats.Compute})
}

// SWBackoff stalls n cycles of software backoff (plotted separately).
// Batched like Compute.
func (t *Thread) SWBackoff(n sim.Cycle) {
	if n == 0 {
		return
	}
	t.queue(lazyStep{delay: n, comp: stats.SWBackoff})
}

// SelfInvalidate drops cached Valid words of the given regions (DeNovo's
// region-based static self-invalidation; a no-op on MESI). Costs one
// instruction cycle.
func (t *Thread) SelfInvalidate(set proto.RegionSet) {
	t.core.op.regions = set
	t.do(opSelfInvalidate)
}

// AcquireSignature self-invalidates cached stale data matching the
// write signature attached to lock (DeNovoND-style dynamic
// self-invalidation; a no-op on MESI). Costs one instruction cycle.
func (t *Thread) AcquireSignature(lock proto.Addr) {
	t.core.op.addr = lock
	t.do(opSigAcquire)
}

// ReleaseSignature publishes this core's writes-since-last-release
// signature to lock (a no-op on MESI). Costs one instruction cycle.
func (t *Thread) ReleaseSignature(lock proto.Addr) {
	t.core.op.addr = lock
	t.do(opSigRelease)
}

// Fence blocks until all outstanding non-blocking stores have committed.
func (t *Thread) Fence() {
	t.do(opFence)
}

// SetPhase switches the accounting phase (kernel / non-synch / barrier).
// Batched: the switch takes effect, in program order, when the queue is
// flushed (it costs its original zero-delay event then).
func (t *Thread) SetPhase(p Phase) {
	t.queue(lazyStep{setPhase: true, phase: p})
}

// Epoch samples the local disturbance counter for addr; pair with
// WaitDisturb to implement efficient spin-waiting.
func (t *Thread) Epoch(addr proto.Addr) uint64 {
	t.flush()
	return t.core.l1.Epoch(addr)
}

// WaitDisturb blocks until the cached state of addr's word is disturbed by
// remote protocol activity (epoch advances past the sampled epoch). The
// wait is charged as compute: architecturally the core is spinning on
// local cache hits (the paper notes spin hits dominate compute time).
func (t *Thread) WaitDisturb(addr proto.Addr, epoch uint64) {
	op := &t.core.op
	op.addr, op.epoch = addr, epoch
	t.do(opWait)
}

// SpinSyncLoadUntil repeatedly sync-loads addr until pred accepts the
// value, sleeping between attempts until the local copy is disturbed.
// This is the efficient spin primitive: on MESI it models spinning on a
// cached copy until invalidation; on DeNovo it models spinning on a
// Registered word until a remote access revokes the registration.
func (t *Thread) SpinSyncLoadUntil(addr proto.Addr, pred func(uint64) bool) uint64 {
	for {
		e := t.Epoch(addr)
		v := t.SyncLoad(addr)
		if pred(v) {
			return v
		}
		t.WaitDisturb(addr, e)
	}
}
