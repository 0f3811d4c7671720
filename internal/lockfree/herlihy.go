package lockfree

import (
	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/mem"
	"denovosync/internal/proto"
)

// Herlihy's methodology [14] makes any small sequential object
// non-blocking: read the root pointer, copy the object, apply the update
// to the copy, and CAS the root from the old version to the new one.
// The paper highlights these kernels for their many pre-linearization
// equality checks (§7.1.3): real implementations re-validate the root
// repeatedly to abort doomed copies early. ExtraChecks reproduces that
// (2 = as adapted from [29]; 0 = the paper's reduced-check modification).

// herlihyObject layout: word 0 = element count, words 1..cap = elements.
func objWords(capacity int) int { return capacity + 1 }

// HerlihyStack is a small-object-copy stack.
type HerlihyStack struct {
	root        proto.Addr
	space       *alloc.Space
	region      proto.RegionID
	capacity    int
	ExtraChecks int
	Backoff     Backoff
}

// NewHerlihyStack allocates the stack with the given element capacity and
// writes the initial empty version into the memory image.
func NewHerlihyStack(s *alloc.Space, st *mem.Store, capacity int) *HerlihyStack {
	h := &HerlihyStack{
		space:       s,
		region:      s.Region("herlihy.stack"),
		capacity:    capacity,
		ExtraChecks: 2,
		Backoff:     DefaultBackoff(),
	}
	h.root = s.AllocPadded(s.Region("herlihy.stack.sync"))
	initial := s.AllocAligned(objWords(capacity), h.region)
	st.Write(h.root, uint64(initial)) // count word is zero
	return h
}

// validate re-reads the root ExtraChecks times, aborting the attempt early
// if the snapshot went stale — the equality-check traffic §7.1.3 studies.
func validate(t *cpu.Thread, root proto.Addr, snap uint64, n int) bool {
	for i := 0; i < n; i++ {
		if t.SyncLoad(root) != snap {
			return false
		}
	}
	return true
}

// copyObj copies src's count+elements into a fresh version object carved
// from the copying thread's lane (the mid-run allocation path; see
// alloc.Space.LaneAllocAligned).
func (h *HerlihyStack) copyObj(t *cpu.Thread, src proto.Addr) (dst proto.Addr, count int) {
	count = int(t.Load(src))
	t.Flush() // pin the carve to the current simulated time
	dst = h.space.LaneAllocAligned(t.ID, objWords(h.capacity), h.region)
	t.Store(dst, uint64(count))
	for i := 0; i < count; i++ {
		off := proto.Addr((i + 1) * proto.WordBytes)
		t.Store(dst+off, t.Load(src+off))
	}
	return dst, count
}

// Push adds v (drops it silently when full, like a bounded kernel).
func (h *HerlihyStack) Push(t *cpu.Thread, v uint64) {
	for att := 0; ; att++ {
		snap := t.SyncLoad(h.root)
		obj := proto.Addr(snap)
		if !validate(t, h.root, snap, h.ExtraChecks) {
			h.Backoff.Wait(t, att)
			continue
		}
		dst, count := h.copyObj(t, obj)
		if count < h.capacity {
			t.Store(dst+proto.Addr((count+1)*proto.WordBytes), v)
			t.Store(dst, uint64(count+1))
		}
		if t.CAS(h.root, snap, uint64(dst)) {
			return
		}
		h.Backoff.Wait(t, att)
	}
}

// Pop removes the newest element; ok is false on empty.
func (h *HerlihyStack) Pop(t *cpu.Thread) (v uint64, ok bool) {
	for att := 0; ; att++ {
		snap := t.SyncLoad(h.root)
		obj := proto.Addr(snap)
		if !validate(t, h.root, snap, h.ExtraChecks) {
			h.Backoff.Wait(t, att)
			continue
		}
		dst, count := h.copyObj(t, obj)
		var val uint64
		if count > 0 {
			val = t.Load(dst + proto.Addr(count*proto.WordBytes))
			t.Store(dst, uint64(count-1))
		}
		if t.CAS(h.root, snap, uint64(dst)) {
			return val, count > 0
		}
		h.Backoff.Wait(t, att)
	}
}

// HerlihyHeap is a small-object-copy binary min-heap (priority queue).
type HerlihyHeap struct {
	root        proto.Addr
	space       *alloc.Space
	region      proto.RegionID
	capacity    int
	ExtraChecks int
	Backoff     Backoff
}

// NewHerlihyHeap allocates the heap with the given capacity.
func NewHerlihyHeap(s *alloc.Space, st *mem.Store, capacity int) *HerlihyHeap {
	h := &HerlihyHeap{
		space:       s,
		region:      s.Region("herlihy.heap"),
		capacity:    capacity,
		ExtraChecks: 2,
		Backoff:     DefaultBackoff(),
	}
	h.root = s.AllocPadded(s.Region("herlihy.heap.sync"))
	initial := s.AllocAligned(objWords(capacity), h.region)
	st.Write(h.root, uint64(initial))
	return h
}

func heapOff(i int) proto.Addr { return proto.Addr((i + 1) * proto.WordBytes) }

// copyHeap clones the current version into a lane-carved object (see
// HerlihyStack.copyObj).
func (h *HerlihyHeap) copyHeap(t *cpu.Thread, src proto.Addr) (dst proto.Addr, count int) {
	count = int(t.Load(src))
	t.Flush() // pin the carve to the current simulated time
	dst = h.space.LaneAllocAligned(t.ID, objWords(h.capacity), h.region)
	t.Store(dst, uint64(count))
	for i := 0; i < count; i++ {
		t.Store(dst+heapOff(i), t.Load(src+heapOff(i)))
	}
	return dst, count
}

// Insert adds v (dropped when full).
func (h *HerlihyHeap) Insert(t *cpu.Thread, v uint64) {
	for att := 0; ; att++ {
		snap := t.SyncLoad(h.root)
		if !validate(t, h.root, snap, h.ExtraChecks) {
			h.Backoff.Wait(t, att)
			continue
		}
		dst, count := h.copyHeap(t, proto.Addr(snap))
		if count < h.capacity {
			// Sift up on the copy (data accesses).
			i := count
			t.Store(dst+heapOff(i), v)
			for i > 0 {
				parent := (i - 1) / 2
				pv := t.Load(dst + heapOff(parent))
				cv := t.Load(dst + heapOff(i))
				if pv <= cv {
					break
				}
				t.Store(dst+heapOff(parent), cv)
				t.Store(dst+heapOff(i), pv)
				i = parent
			}
			t.Store(dst, uint64(count+1))
		}
		if t.CAS(h.root, snap, uint64(dst)) {
			return
		}
		h.Backoff.Wait(t, att)
	}
}

// DeleteMin removes and returns the minimum; ok is false on empty.
func (h *HerlihyHeap) DeleteMin(t *cpu.Thread) (v uint64, ok bool) {
	for att := 0; ; att++ {
		snap := t.SyncLoad(h.root)
		if !validate(t, h.root, snap, h.ExtraChecks) {
			h.Backoff.Wait(t, att)
			continue
		}
		dst, count := h.copyHeap(t, proto.Addr(snap))
		var min uint64
		if count > 0 {
			min = t.Load(dst + heapOff(0))
			last := t.Load(dst + heapOff(count-1))
			t.Store(dst+heapOff(0), last)
			t.Store(dst, uint64(count-1))
			// Sift down.
			n := count - 1
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				smallest := i
				sv := t.Load(dst + heapOff(i))
				if l < n {
					if lv := t.Load(dst + heapOff(l)); lv < sv {
						smallest, sv = l, lv
					}
				}
				if r < n {
					if rv := t.Load(dst + heapOff(r)); rv < sv {
						smallest, sv = r, rv
					}
				}
				if smallest == i {
					break
				}
				iv := t.Load(dst + heapOff(i))
				t.Store(dst+heapOff(i), sv)
				t.Store(dst+heapOff(smallest), iv)
				i = smallest
			}
		}
		if t.CAS(h.root, snap, uint64(dst)) {
			return min, count > 0
		}
		h.Backoff.Wait(t, att)
	}
}
