package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Host-time layers. Each CPU-profile sample is charged to the innermost
// repository package on its stack; runtime frames below that package
// (allocation, channel operations, map lookups) are charged to it too.
// Samples with no repository frame are charged to layerRuntime, and
// repository packages outside the named layers (proto, stats, the
// benchmark itself) to layerOther, so every sample lands in one layer.
const (
	layerRuntime = "runtime"
	layerOther   = "other"
)

// layerOf maps the repository's packages onto the benchmark's layers.
var layerOf = map[string]string{
	// harness (figure assembly, claims) takes well under one 4 ms sample
	// per pass, so it shares exp's layer; span.figure_s times it directly.
	"denovosync/internal/exp":      "exp",
	"denovosync/internal/harness":  "exp",
	"denovosync/internal/kernels":  "workload",
	"denovosync/internal/apps":     "workload",
	"denovosync/internal/locks":    "workload",
	"denovosync/internal/lockfree": "workload",
	"denovosync/internal/barrier":  "workload",
	"denovosync/internal/machine":  "machine",
	"denovosync/internal/cpu":      "cpu",
	"denovosync/internal/sim":      "sim",
	"denovosync/internal/denovo":   "denovo",
	"denovosync/internal/mesi":     "mesi",
	"denovosync/internal/cache":    "cache",
	"denovosync/internal/noc":      "noc",
	"denovosync/internal/mem":      "mem",
	"denovosync/internal/alloc":    "alloc",
}

// hostLayers lists every layer foldProfile charges, in report order.
var hostLayers = []string{
	"exp", "machine", "workload", "cpu", "sim", "denovo", "mesi",
	"cache", "noc", "mem", "alloc", layerRuntime, layerOther,
}

// Runtime entry points, by the function a repository frame called into.
// Their time is reported a second time, as a share of the repository
// layer that called them.
var runtimeEntries = []struct{ class, prefix string }{
	{"chan", "runtime.chansend"},
	{"chan", "runtime.chanrecv"},
	{"chan", "runtime.selectgo"},
	{"chan", "runtime.selectnb"},
	{"chan", "runtime.closechan"},
	{"chan", "runtime.block"},
	{"malloc", "runtime.newobject"},
	{"malloc", "runtime.mallocgc"},
	{"malloc", "runtime.makeslice"},
	{"malloc", "runtime.growslice"},
	{"malloc", "runtime.makemap"},
	{"malloc", "runtime.newarray"},
	{"malloc", "runtime.convT"},
	{"malloc", "runtime.concatstring"},
	{"malloc", "runtime.slicebytetostring"},
	{"map", "runtime.mapaccess"},
	{"map", "runtime.mapassign"},
	{"map", "runtime.mapdelete"},
	{"map", "runtime.mapiter"},
	{"map", "runtime.mapclear"},
	{"map", "internal/runtime/maps."},
}

// runtimeClasses lists the runtime entry classes in report order.
var runtimeClasses = []string{"chan", "malloc", "map"}

// hostProfile is a CPU profile folded into layers.
type hostProfile struct {
	Total   time.Duration
	Layers  map[string]time.Duration // every sample in exactly one layer
	Runtime map[string]time.Duration // runtime entry classes below repository frames
}

// coverage is the share of profiled time that lands in a named layer or
// the runtime, as opposed to repository packages outside the layers.
func (h hostProfile) coverage() float64 {
	if h.Total == 0 {
		return 0
	}
	return 1 - float64(h.Layers[layerOther])/float64(h.Total)
}

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and charges each sample's CPU time to one layer.
func foldProfile(gz []byte) (hostProfile, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return hostProfile{}, err
	}
	h := hostProfile{Layers: make(map[string]time.Duration), Runtime: make(map[string]time.Duration)}
	for _, s := range samples {
		layer, class := foldStack(s.stack)
		h.Total += s.cpu
		h.Layers[layer] += s.cpu
		if class != "" {
			h.Runtime[class] += s.cpu
		}
	}
	return h, nil
}

// foldStack returns the layer of the innermost repository frame of a
// leaf-first stack, and the runtime entry class of the frame it called.
func foldStack(stack []string) (layer, class string) {
	for i, fn := range stack {
		pkg := packageOf(fn)
		if !isRepo(pkg) {
			continue
		}
		if i > 0 {
			class = runtimeClass(stack[i-1])
		}
		if l, ok := layerOf[pkg]; ok {
			return l, class
		}
		return layerOther, class
	}
	return layerRuntime, ""
}

// isRepo reports whether a package belongs to this repository. The
// benchmark's own command is package main.
func isRepo(pkg string) bool {
	return pkg == "main" || pkg == "denovosync" || strings.HasPrefix(pkg, "denovosync/")
}

func runtimeClass(fn string) string {
	for _, e := range runtimeEntries {
		if strings.HasPrefix(fn, e.prefix) {
			return e.class
		}
	}
	return ""
}

// packageOf returns the import path of a profiled function name such as
// "denovosync/internal/denovo.(*L1).access" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profSample is one decoded CPU-profile sample.
type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	cpu   time.Duration
}

// decodeProfile reads the parts of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that folding needs.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		types   []uint64 // string index of each sample type
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.values, err = appendPacked(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("perfbench: profile has no sample types")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("perfbench: profile sample lacks a cpu value")
		}
		ps := profSample{cpu: time.Duration(s.values[cpuIdx])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("perfbench: profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("perfbench: profile: bad varint")
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("perfbench: profile: short fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("perfbench: profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("perfbench: profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("perfbench: profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which an encoder may
// write either packed (b) or as one value per field (v).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("perfbench: profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
