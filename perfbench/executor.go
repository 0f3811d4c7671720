package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"denovosync/internal/alloc"
	"denovosync/internal/apps"
	"denovosync/internal/exp"
	"denovosync/internal/harness"
	"denovosync/internal/kernels"
	"denovosync/internal/locks"
	"denovosync/internal/machine"
	"denovosync/internal/proto"
	"denovosync/internal/stats"
)

// counts are the simulated quantities read from one finished machine's
// public getters. They are exact: a change that touches only the
// simulator's speed leaves every one of them unchanged.
type counts struct {
	Events, ExecCycles, Ops                       uint64
	MemStall, HWBackoff, SWBackoff, BarrierCycles uint64
	Hits, Misses                                  [5]uint64 // by proto.AccessKind
	Evictions, Writebacks                         uint64
	Messages, FlitHops                            [proto.NumMsgClasses]uint64
	DRAMAccesses, SpaceBytes                      uint64
}

func readCounts(m *machine.Machine, rs *stats.RunStats) counts {
	c := counts{
		Events:       rs.Events,
		ExecCycles:   uint64(rs.ExecTime),
		Messages:     m.Net.Messages(),
		FlitHops:     m.Net.Traffic(),
		DRAMAccesses: m.DRAM.Accesses(),
		SpaceBytes:   m.Space.Used(),
	}
	for _, core := range m.Cores {
		c.Ops += core.Retired()
		t := core.Time()
		c.MemStall += uint64(t.Cycles[stats.MemStall])
		c.HWBackoff += uint64(t.Cycles[stats.HWBackoff])
		c.SWBackoff += uint64(t.Cycles[stats.SWBackoff])
		c.BarrierCycles += uint64(t.Cycles[stats.BarrierStall])
	}
	for _, l1 := range m.L1s {
		s := l1.Stats()
		for k := range s.Hits {
			c.Hits[k] += s.Hits[k]
			c.Misses[k] += s.Misses[k]
		}
		c.Evictions += s.Evicted
		c.Writebacks += s.WB
	}
	return c
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.ExecCycles += o.ExecCycles
	c.Ops += o.Ops
	c.MemStall += o.MemStall
	c.HWBackoff += o.HWBackoff
	c.SWBackoff += o.SWBackoff
	c.BarrierCycles += o.BarrierCycles
	for k := range c.Hits {
		c.Hits[k] += o.Hits[k]
		c.Misses[k] += o.Misses[k]
	}
	c.Evictions += o.Evictions
	c.Writebacks += o.Writebacks
	for k := range c.Messages {
		c.Messages[k] += o.Messages[k]
		c.FlitHops[k] += o.FlitHops[k]
	}
	c.DRAMAccesses += o.DRAMAccesses
	c.SpaceBytes += o.SpaceBytes
}

// runInfo is what the executor records about one finished run: the host
// spans around each layer call and the machine's simulated counts.
type runInfo struct {
	span    time.Duration // the whole executor call
	setup   time.Duration // alloc.New + machine.New
	run     time.Duration // kernels.RunWithSummary or apps.RunSig
	engine  time.Duration // RunStats.WallTime: the engine's run loop
	summary string        // kernel functional summary ("" for apps)
	counts  counts
}

// executor builds each run from public functions, as exp.Execute does,
// so that it can time machine.New and read the finished machine's
// counters. It is safe for concurrent use by exp's workers.
type executor struct {
	seed uint64

	mu   sync.Mutex
	runs map[string]runInfo // by exp.Run.Key
}

func newExecutor(seed uint64) *executor {
	return &executor{seed: seed, runs: make(map[string]runInfo)}
}

// take returns the runs recorded since the last call and forgets them.
func (x *executor) take() map[string]runInfo {
	x.mu.Lock()
	defer x.mu.Unlock()
	runs := x.runs
	x.runs = make(map[string]runInfo)
	return runs
}

// newMachine builds the machine exp.Execute would build for r, with the
// benchmark's seed.
func (x *executor) newMachine(r exp.Run) (*machine.Machine, error) {
	if err := supported(r); err != nil {
		return nil, err
	}
	prot, err := exp.ParseProtocol(r.Protocol)
	if err != nil {
		return nil, err
	}
	p := harness.ParamsFor(r.Cores)
	p.Seed = x.seed
	// exp.Execute arms no watchdog, and the watchdog's tick events are
	// counted in RunStats.Events; keep the machine paperbench builds.
	p.WatchdogCycles = 0
	return machine.New(p, prot, alloc.New()), nil
}

// execute has the signature of exp.Engine.Executor.
func (x *executor) execute(r exp.Run) (*stats.RunStats, json.RawMessage, error) {
	start := time.Now()
	m, err := x.newMachine(r)
	if err != nil {
		return nil, nil, err
	}
	setup := time.Since(start)

	var rs *stats.RunStats
	var summary string
	switch r.Kind {
	case exp.KindKernel:
		k, ok := kernels.ByID(r.Workload)
		if !ok {
			return nil, nil, fmt.Errorf("perfbench: unknown kernel %q", r.Workload)
		}
		rs, summary, err = kernels.RunWithSummary(k, m, kernels.Config{
			Cores:         r.Cores,
			Iters:         r.Iters,
			EqChecks:      r.EqChecks,
			NonSynchMin:   r.GapMin,
			NonSynchMax:   r.GapMax,
			LockBackoff:   locks.BackoffRange{Min: r.SWBackoffMin, Max: r.SWBackoffMax},
			NoPadding:     r.NoPadding,
			InvalidateAll: r.InvalidateAll,
			ForceMCS:      r.ForceMCS,
			UseSignatures: r.UseSignatures,
		})
	case exp.KindApp:
		a, ok := apps.ByID(r.Workload)
		if !ok {
			return nil, nil, fmt.Errorf("perfbench: unknown app %q", r.Workload)
		}
		rs, err = apps.RunSig(a, m, max(r.Scale, 1), r.UseSignatures)
	}
	run := time.Since(start) - setup
	if err != nil {
		return nil, nil, err
	}
	info := runInfo{setup: setup, run: run, engine: rs.WallTime, summary: summary, counts: readCounts(m, rs)}
	info.span = time.Since(start)
	x.mu.Lock()
	x.runs[r.Key()] = info
	x.mu.Unlock()
	return rs, nil, nil
}

// supported rejects the run kinds and machine overrides that the
// benchmark's figure plans never produce, rather than building a machine
// that differs from the one exp.Execute would build.
func supported(r exp.Run) error {
	switch {
	case r.Kind != exp.KindKernel && r.Kind != exp.KindApp:
		return fmt.Errorf("perfbench: unsupported run kind %q", r.Kind)
	case r.Cores != 16 && r.Cores != 64:
		return fmt.Errorf("perfbench: unsupported core count %d", r.Cores)
	case r.BackoffBits != 0 || r.Increment != 0 || r.Signatures || r.LineGranularity || r.LinkContention:
		return fmt.Errorf("perfbench: %s overrides machine parameters", r)
	}
	return nil
}
