package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter encodes the protobuf subset a synthetic pprof profile needs.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) key(num, wire int) { w.varint(uint64(num<<3 | wire)) }
func (w *pbWriter) varint(v uint64)   { w.Write(binary.AppendUvarint(nil, v)) }
func (w *pbWriter) uint(num int, v uint64) {
	w.key(num, 0)
	w.varint(v)
}
func (w *pbWriter) bytes(num int, b []byte) {
	w.key(num, 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}

// synthProfile builds a gzipped CPU profile. Each sample is a stack of
// locations, leaf first; a location is one or more function names,
// innermost inlined frame first. Location ids are written unpacked and
// values packed, to cover both encodings of repeated fields.
func synthProfile(t *testing.T, samples []struct {
	locs [][]string
	ns   int64
}) []byte {
	t.Helper()
	var p pbWriter
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, typ := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pbWriter
		vt.uint(1, str(typ[0]))
		vt.uint(2, str(typ[1]))
		p.bytes(1, vt.Bytes())
	}
	funcs := map[string]uint64{}
	var locID uint64
	for _, s := range samples {
		var sm pbWriter
		for _, loc := range s.locs {
			locID++
			var l pbWriter
			l.uint(1, locID)
			for _, fn := range loc {
				if funcs[fn] == 0 {
					funcs[fn] = uint64(len(funcs) + 1)
					var f pbWriter
					f.uint(1, funcs[fn])
					f.uint(2, str(fn))
					p.bytes(5, f.Bytes())
				}
				var line pbWriter
				line.uint(1, funcs[fn])
				l.bytes(4, line.Bytes())
			}
			p.bytes(4, l.Bytes())
			sm.uint(1, locID)
		}
		var vals pbWriter
		vals.varint(1)
		vals.varint(uint64(s.ns))
		sm.bytes(2, vals.Bytes())
		p.bytes(2, sm.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfileChargesRuntimeToCaller(t *testing.T) {
	ms := int64(time.Millisecond)
	gz := synthProfile(t, []struct {
		locs [][]string
		ns   int64
	}{
		{[][]string{{"runtime.mallocgc"}, {"runtime.newobject"}, {"denovosync/internal/denovo.(*L1).access"}, {"denovosync/internal/sim.(*Engine).Run"}}, 30 * ms},
		{[][]string{{"runtime.gcBgMarkWorker"}}, 20 * ms},
		{[][]string{{"runtime.lock2"}, {"runtime.chansend1"}, {"denovosync/internal/cpu.(*Core).complete"}}, 10 * ms},
		// A map lookup inlined into a workload function: one location, two lines.
		{[][]string{{"internal/runtime/maps.(*Map).getWithKey", "denovosync/internal/lockfree.(*HerlihyStack).copyObj"}}, 5 * ms},
		{[][]string{{"denovosync/internal/proto.AccessKind.String"}, {"denovosync/internal/machine.(*Machine).Run"}}, 7 * ms},
	})
	h, err := foldProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"denovo": 30 * time.Millisecond, layerRuntime: 20 * time.Millisecond,
		"cpu": 10 * time.Millisecond, "workload": 5 * time.Millisecond, layerOther: 7 * time.Millisecond,
	}
	for _, l := range hostLayers {
		if h.Layers[l] != want[l] {
			t.Errorf("layer %s = %v, want %v", l, h.Layers[l], want[l])
		}
	}
	wantRT := map[string]time.Duration{"malloc": 30 * time.Millisecond, "chan": 10 * time.Millisecond, "map": 5 * time.Millisecond}
	for _, c := range runtimeClasses {
		if h.Runtime[c] != wantRT[c] {
			t.Errorf("runtime class %s = %v, want %v", c, h.Runtime[c], wantRT[c])
		}
	}
	if h.Total != 72*time.Millisecond {
		t.Errorf("total = %v, want 72ms", h.Total)
	}
	if got, want := h.coverage(), 65.0/72; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// TestFoldRealProfile folds a profile runtime/pprof wrote, so the decoder
// is checked against the encoder the benchmark uses.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	n := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		n += len(make([]byte, 1<<10))
	}
	pprof.StopCPUProfile()
	h, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.Total == 0 {
		t.Fatalf("no samples in a 300ms busy loop (n=%d)", n)
	}
	var sum time.Duration
	for _, l := range hostLayers {
		sum += h.Layers[l]
	}
	if sum != h.Total {
		t.Errorf("layers sum to %v, profile total %v", sum, h.Total)
	}
	if h.Layers[layerOther] == 0 {
		t.Errorf("the test's own frames were not charged to %q: %v", layerOther, h.Layers)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"denovosync/internal/denovo.(*L1).access":       "denovosync/internal/denovo",
		"denovosync/internal/cpu.(*Thread).memOp.func1": "denovosync/internal/cpu",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKey":       "internal/runtime/maps",
		"main.main":            "main",
		"slices.SortFunc[...]": "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
