package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// profileHz is the traced run's CPU-profile rate. runtime/pprof's 100 Hz
// leaves the small layers (alloc, mem on kernels-16c) with a handful of
// samples per pass. Linux delivers per-thread profiling signals at most
// once per kernel tick, commonly 250 Hz; above that, samples are lost
// and host.profile_s falls below the CPU time the process used. The rate
// is set before StartCPUProfile, which then logs that it cannot change it.
const profileHz = 250

// Go runtime metrics read at the start and end of the traced passes.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mSchedLatency = "/sched/latencies:seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// runtimeDelta is what the Go runtime did between two readings.
type runtimeDelta struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU                        float64 // seconds
	schedP50, schedP99           float64 // seconds a runnable goroutine waited
	heapPeak                     uint64  // bytes, sampled every heapEvery
}

const heapEvery = 10 * time.Millisecond

// tracer holds a running CPU profile, the runtime metrics it started
// from, and the goroutine that samples heap size.
type tracer struct {
	prof  bytes.Buffer
	start []metrics.Sample
	stop  chan struct{}
	done  chan struct{}
	peak  uint64 // written by the sampler; read after done is closed
}

func readMetrics() []metrics.Sample {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles},
		{Name: mGCCPU}, {Name: mSchedLatency},
	}
	metrics.Read(s)
	return s
}

// startTrace starts the CPU profile and the heap sampler. The caller
// must call finish.
func startTrace() (*tracer, error) {
	t := &tracer{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	runtime.GC() // start the heap peak from live data, not leftover garbage
	t.start = readMetrics()
	go t.sampleHeap()
	return t, nil
}

func (t *tracer) sampleHeap() {
	defer close(t.done)
	s := []metrics.Sample{{Name: mHeapObjects}}
	tick := time.NewTicker(heapEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		t.peak = max(t.peak, s[0].Value.Uint64())
		select {
		case <-tick.C:
		case <-t.stop:
			return
		}
	}
}

// finish stops the profile and the sampler and returns the folded
// profile and the runtime's deltas.
func (t *tracer) finish() (hostProfile, runtimeDelta, error) {
	end := readMetrics()
	pprof.StopCPUProfile()
	close(t.stop)
	<-t.done

	d := runtimeDelta{
		allocBytes: end[0].Value.Uint64() - t.start[0].Value.Uint64(),
		allocs:     end[1].Value.Uint64() - t.start[1].Value.Uint64(),
		gcCycles:   end[2].Value.Uint64() - t.start[2].Value.Uint64(),
		gcCPU:      end[3].Value.Float64() - t.start[3].Value.Float64(),
		heapPeak:   t.peak,
	}
	d.schedP50, d.schedP99 = histDeltaQuantiles(t.start[4].Value.Float64Histogram(), end[4].Value.Float64Histogram())
	h, err := foldProfile(t.prof.Bytes())
	return h, d, err
}

// histDeltaQuantiles returns the 50th and 99th percentiles of the
// observations added to a cumulative runtime histogram between two
// readings, each as the upper edge of the bucket it falls in.
func histDeltaQuantiles(a, b *metrics.Float64Histogram) (p50, p99 float64) {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i]
		if i < len(a.Counts) {
			delta[i] -= a.Counts[i]
		}
		total += delta[i]
	}
	q := func(p float64) float64 {
		want := uint64(math.Ceil(p * float64(total)))
		var seen uint64
		for i, n := range delta {
			if seen += n; n > 0 && seen >= want {
				if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
					return hi
				}
				return b.Buckets[i]
			}
		}
		return 0
	}
	return q(0.50), q(0.99)
}
