// Package machine assembles a full simulated system — cores, L1s, the
// shared L2 (MESI directory or DeNovo registry), mesh network, and memory
// controllers — and runs workloads on it.
package machine

import (
	"fmt"
	"io"
	"time"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/denovo"
	"denovosync/internal/mem"
	"denovosync/internal/mesi"
	"denovosync/internal/noc"
	"denovosync/internal/pdes"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
	"denovosync/internal/trace"
)

// Protocol selects the coherence protocol under evaluation.
type Protocol int

const (
	MESI Protocol = iota
	DeNovoSync0
	DeNovoSync
)

func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case DeNovoSync0:
		return "DeNovoSync0"
	case DeNovoSync:
		return "DeNovoSync"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Short returns the figure-label abbreviation (M / DS0 / DS).
func (p Protocol) Short() string {
	switch p {
	case MESI:
		return "M"
	case DeNovoSync0:
		return "DS0"
	case DeNovoSync:
		return "DS"
	}
	return "?"
}

// Params captures Table 1 of the paper plus the backoff configuration of
// §5.2.
type Params struct {
	Cores        int
	MeshW, MeshH int

	L1Size, L1Ways int

	// Network: per-hop latency as a rational (cycles).
	PerHopNum, PerHopDen sim.Cycle

	// Latency components fitted to Table 1: L1 access 1, L2 access 27,
	// remote-L1 access 9, DRAM 169 (so local L2 hit = 28, local remote-L1
	// hit = 37, local memory hit = 197; distance adds per-hop cycles up to
	// the table's maxima).
	L1AccessLat, L2AccessLat, RemoteL1Lat, DRAMLat sim.Cycle

	// DeNovoSync hardware backoff (§5.2): 9-bit counter with 1-cycle
	// default increment at 16 cores; 12-bit with 64-cycle at 64 cores.
	BackoffBits      uint
	DefaultIncrement sim.Cycle
	IncEveryN        int

	// Signatures enables the DeNovoND-style hardware write-signature
	// extension on DeNovo machines (dynamic self-invalidation).
	Signatures bool

	// LinkContention switches the mesh from the analytic latency model to
	// the wormhole approximation with per-link serialization.
	LinkContention bool

	// LineGranularity switches DeNovo machines from the paper's
	// word-granularity coherence state to line granularity — the ablation
	// behind §2.2's false-sharing claim.
	LineGranularity bool

	// Seed drives all workload randomness (deterministic).
	Seed uint64

	// WatchdogCycles arms the deadlock/livelock watchdog: if no core
	// retires an operation for this many cycles, the run aborts with a
	// structured diagnostic snapshot (*WatchdogError) instead of spinning
	// to the event limit. 0 disables.
	WatchdogCycles sim.Cycle

	// LPs partitions the machine into that many logical processes run in
	// parallel under the conservative window scheduler (internal/pdes).
	// 0 or 1 is the serial machine. Results are bit-identical across all
	// values (the pdes differential battery enforces it); LinkContention
	// and message tracing are serial-only and refuse LPs > 1.
	LPs int
}

// lps returns the effective logical-process count.
func (p Params) lps() int {
	if p.LPs < 1 {
		return 1
	}
	return p.LPs
}

// Params16 returns the 16-core configuration of Table 1.
func Params16() Params {
	return Params{
		Cores: 16, MeshW: 4, MeshH: 4,
		L1Size: 32 * 1024, L1Ways: 8,
		PerHopNum: 10, PerHopDen: 3,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9, DRAMLat: 169,
		BackoffBits: 9, DefaultIncrement: 1, IncEveryN: 16,
		Seed: 1,
	}
}

// Params64 returns the 64-core configuration of Table 1.
func Params64() Params {
	return Params{
		Cores: 64, MeshW: 8, MeshH: 8,
		L1Size: 32 * 1024, L1Ways: 8,
		PerHopNum: 4, PerHopDen: 1,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9, DRAMLat: 169,
		BackoffBits: 12, DefaultIncrement: 64, IncEveryN: 64,
		Seed: 1,
	}
}

// Machine is one assembled system ready to run a workload.
type Machine struct {
	Params   Params
	Protocol Protocol

	Eng   *sim.Engine
	Net   *noc.Network
	Store *mem.Store
	DRAM  *mem.DRAM
	Space *alloc.Space

	L1s   []proto.L1Controller
	Cores []*cpu.Core

	// test hooks
	MESIDir  *mesi.Directory
	Registry *denovo.Registry

	// Parallel-mode state (nil/zero on serial machines): the partition,
	// one engine per LP (engines[0] == Eng), the mailbox exchange wired
	// into the network, and the window scheduler.
	part    pdes.Partition
	engines []*sim.Engine
	exch    *pdes.Exchange
	sched   *pdes.Scheduler

	rng         *sim.RNG
	watchdogErr *WatchdogError
}

// Parallel reports whether the machine runs partitioned (LPs > 1).
func (m *Machine) Parallel() bool { return m.engines != nil }

// engFor returns the engine driving node's events.
func (m *Machine) engFor(node proto.NodeID) *sim.Engine {
	if m.engines == nil {
		return m.Eng
	}
	return m.engines[m.part.LPOf(node)]
}

// simNow returns the latest cycle any engine has reached.
func (m *Machine) simNow() sim.Cycle {
	if m.engines == nil {
		return m.Eng.Now()
	}
	var t sim.Cycle
	for _, e := range m.engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// totalEvents returns events dispatched across all engines, including
// replicated watchdog ticks (serial ticks are real engine events; the
// parallel coordinator runs them at barriers and counts them here).
func (m *Machine) totalEvents() uint64 {
	if m.engines == nil {
		return m.Eng.Executed
	}
	var t uint64
	for _, e := range m.engines {
		t += e.Executed
	}
	if m.sched != nil {
		t += m.sched.Ticks
	}
	return t
}

// pendingEvents returns queued events across all engines.
func (m *Machine) pendingEvents() int {
	if m.engines == nil {
		return m.Eng.Pending()
	}
	n := 0
	for _, e := range m.engines {
		n += e.Pending()
	}
	return n
}

// finishedCount polls how many cores have retired their thread's final
// operation. The machine deliberately keeps no "finished" counter of its
// own: a shared counter bumped from every core's service loop is exactly
// the cross-tile mutation the isolation prover forbids, while polling
// each core's own flag is a read-only sweep any PDES coordinator can do.
func (m *Machine) finishedCount() int {
	n := 0
	for _, core := range m.Cores {
		if core.Finished() {
			n++
		}
	}
	return n
}

// New assembles a machine. space provides the region map (it may already
// contain workload allocations; threads may also allocate during the run).
func New(p Params, prot Protocol, space *alloc.Space) *Machine {
	if p.Cores != p.MeshW*p.MeshH {
		panic("machine: core count does not match mesh")
	}
	lps := p.lps()
	if lps > 1 && p.LinkContention {
		panic("machine: link contention is serial-only (set LPs <= 1)")
	}
	mesh := noc.Mesh{W: p.MeshW, H: p.MeshH}

	// Engines first: every component resolves its driving engine at
	// wiring time. Serial machines get one; partitioned machines one per
	// logical process, with engines[0] doubling as the nominal m.Eng.
	var part pdes.Partition
	var engines []*sim.Engine
	eng := sim.NewEngine()
	if lps > 1 {
		var err error
		part, err = pdes.NewPartition(mesh, lps)
		if err != nil {
			panic(err)
		}
		engines = make([]*sim.Engine, lps)
		engines[0] = eng
		for i := 1; i < lps; i++ {
			engines[i] = sim.NewEngine()
		}
	}
	engAt := func(node proto.NodeID) *sim.Engine {
		if engines == nil {
			return eng
		}
		return engines[part.LPOf(node)]
	}

	net := noc.New(eng, mesh, p.PerHopNum, p.PerHopDen)
	if p.LinkContention {
		net.EnableContention(1)
	}
	store := mem.NewStore()
	dram := mem.NewDRAM(eng, net, p.DRAMLat)
	var exch *pdes.Exchange
	if lps > 1 {
		nodeEngines := make([]*sim.Engine, mesh.Tiles()+noc.NumMemCtrl)
		for i := range nodeEngines {
			nodeEngines[i] = engAt(proto.NodeID(i))
		}
		net.SetEngines(nodeEngines)
		exch = pdes.NewExchange(part, engines)
		net.SetExchange(exch)
		store.Share()
		var mcEngines [noc.NumMemCtrl]*sim.Engine
		for k := 0; k < noc.NumMemCtrl; k++ {
			mcEngines[k] = engAt(mesh.MemNode(k))
		}
		dram.SetEngines(mcEngines)
	}

	m := &Machine{
		Params: p, Protocol: prot,
		Eng: eng, Net: net, Store: store, DRAM: dram, Space: space,
		part: part, engines: engines, exch: exch,
		rng: sim.NewRNG(p.Seed),
	}

	switch prot {
	case MESI:
		cfg := &mesi.Config{
			Eng: eng, Net: net, Store: store, DRAM: dram, EngAt: engAtOrNil(engines, engAt),
			L1Size: p.L1Size, L1Ways: p.L1Ways,
			L1AccessLat: p.L1AccessLat, L2AccessLat: p.L2AccessLat, RemoteL1Lat: p.RemoteL1Lat,
		}
		dir := mesi.NewDirectory(cfg, p.Cores)
		m.MESIDir = dir
		for i := 0; i < p.Cores; i++ {
			l1 := mesi.NewL1(cfg, proto.CoreID(i), proto.NodeID(i))
			l1.SetDirectory(dir)
			m.L1s = append(m.L1s, l1)
		}
	case DeNovoSync0, DeNovoSync:
		cfg := &denovo.Config{
			Eng: eng, Net: net, Store: store, DRAM: dram, EngAt: engAtOrNil(engines, engAt),
			L1Size: p.L1Size, L1Ways: p.L1Ways,
			L1AccessLat: p.L1AccessLat, L2AccessLat: p.L2AccessLat, RemoteL1Lat: p.RemoteL1Lat,
			Backoff:     prot == DeNovoSync,
			BackoffBits: p.BackoffBits, DefaultIncrement: p.DefaultIncrement, IncEveryN: p.IncEveryN,
		}
		if p.Signatures {
			cfg.Signatures = mem.NewSigTable(p.Cores)
		}
		if p.LineGranularity {
			cfg.UnitWords = proto.WordsPerLine
		}
		reg := denovo.NewRegistry(cfg, p.Cores)
		m.Registry = reg
		var l1s []*denovo.L1
		for i := 0; i < p.Cores; i++ {
			l1 := denovo.NewL1(cfg, proto.CoreID(i), proto.NodeID(i), space)
			l1.SetRegistry(reg)
			l1s = append(l1s, l1)
			m.L1s = append(m.L1s, l1)
		}
		reg.SetL1s(l1s)
	default:
		panic("machine: unknown protocol")
	}
	return m
}

// engAtOrNil passes the resolver through only for partitioned machines,
// so serial configs keep the nil fast path.
func engAtOrNil(engines []*sim.Engine, engAt func(proto.NodeID) *sim.Engine) func(proto.NodeID) *sim.Engine {
	if engines == nil {
		return nil
	}
	return engAt
}

// EnableTrace logs every network message to w (one line per message:
// cycle, class, route, flits). class = proto.NumMsgClasses traces all
// classes; limit > 0 caps the number of logged events.
func (m *Machine) EnableTrace(w io.Writer, class proto.MsgClass, limit int) *trace.Tracer {
	if m.Parallel() {
		panic("machine: message tracing is serial-only (set LPs <= 1)")
	}
	tr := trace.New(w, class, limit)
	m.Net.SetTrace(tr.Message)
	return tr
}

// Workload is the per-thread body; it runs once per core.
type Workload func(t *cpu.Thread)

// Run executes the workload with one thread per core, to completion.
// It returns aggregate statistics, or an error if the system deadlocked
// (threads blocked with no events pending) or exceeded the event limit.
func (m *Machine) Run(name string, w Workload) (*stats.RunStats, error) {
	return m.RunThreads(name, func(i int) Workload { return w })
}

// RunThreads runs a possibly heterogeneous workload (body(i) supplies
// thread i); a panicking thread body fails it with a *ThreadPanicError.
func (m *Machine) RunThreads(name string, body func(i int) Workload) (rs *stats.RunStats, err error) {
	if m.Cores != nil {
		panic("machine: Run called twice")
	}
	for i := 0; i < m.Params.Cores; i++ {
		core := cpu.NewCore(m.engFor(proto.NodeID(i)), proto.CoreID(i), m.L1s[i], nil)
		m.Cores = append(m.Cores, core)
		core.Start()
	}
	// However the run ends — finished, aborted by the watchdog, stuck, or
	// panicking — unwind every thread still suspended in an operation, so
	// no coroutine outlives the run and pins the machine.
	defer func() {
		for _, core := range m.Cores {
			core.Stop()
		}
		if p := recover(); p != nil {
			tp, ok := p.(*ThreadPanicError)
			if !ok {
				panic(p)
			}
			rs, err = nil, tp
		}
	}()
	// Thread RNG forks happen here, host-serially in core order, so the
	// per-thread streams are identical in every partitioning.
	for i, core := range m.Cores {
		th := cpu.NewThread(core, m.Space, m.rng.Fork())
		fn := body(i)
		th.Spawn(func(th *cpu.Thread) {
			th.Rendezvous()
			fn(th)
		})
	}
	const eventLimit = 4_000_000_000
	wallStart := time.Now()
	var runErr error
	if m.Parallel() {
		runErr = m.runParallel(eventLimit)
	} else {
		if m.Params.WatchdogCycles > 0 {
			m.armWatchdog()
		}
		m.Eng.Run(eventLimit)
	}
	wall := time.Since(wallStart)

	if m.watchdogErr != nil {
		return nil, m.watchdogErr
	}
	if runErr != nil {
		return nil, runErr
	}
	if finished := m.finishedCount(); finished != m.Params.Cores {
		return nil, fmt.Errorf("machine: deadlock or livelock: %d/%d threads finished after %d events",
			finished, m.Params.Cores, m.totalEvents())
	}

	rs = &stats.RunStats{
		Protocol: m.Protocol.String(),
		Workload: name,
		Cores:    m.Params.Cores,
		Traffic:  m.Net.Traffic(),
		Events:   m.totalEvents(),
	}
	for _, core := range m.Cores {
		rs.PerCore = append(rs.PerCore, core.Time())
		s := core.L1().Stats()
		rs.L1Hits += s.TotalHits()
		rs.L1Misses += s.TotalMisses()
	}
	rs.Aggregate()
	rs.SetWallTime(wall)

	// Every run doubles as a protocol invariant test: validate the
	// stable-state invariants at quiescence.
	if err := m.CheckInvariants(); err != nil {
		return nil, err
	}
	return rs, nil
}

// ThreadPanicError is the error a run fails with when a workload thread
// body panics: it names the core and simulated cycle and carries the
// panic value and the thread's stack. Use errors.As to inspect it.
type ThreadPanicError = cpu.ThreadPanicError

// CheckInvariants validates the protocol's stable-state invariants across
// all caches and the shared L2 (single owner/registrant, directory and
// registry agreement, value coherence). Run calls it automatically after
// every simulation.
func (m *Machine) CheckInvariants() error {
	switch m.Protocol {
	case MESI:
		var l1s []*mesi.L1
		for _, c := range m.L1s {
			l1s = append(l1s, c.(*mesi.L1))
		}
		return m.MESIDir.Validate(l1s)
	default:
		var l1s []*denovo.L1
		for _, c := range m.L1s {
			l1s = append(l1s, c.(*denovo.L1))
		}
		return m.Registry.Validate(l1s)
	}
}
