// Package alloc provides the simulated shared-memory allocator and the
// software region map. Disciplined software assigns every shared location
// to a region (§3 of the paper); the allocator is where workloads declare
// those assignments, and it serves as the global RegionMapper consulted by
// cores and DeNovo L1 fills.
//
// Allocation is bump-pointer and never reuses addresses, which (a) keeps
// runs deterministic and (b) sidesteps ABA on CAS-based structures the
// same way counted pointers would, without simulating them.
package alloc

import (
	"fmt"

	"denovosync/internal/proto"
)

// base keeps simulated data away from address 0 so a zero value is never a
// valid pointer (lock-free structures use 0 as nil).
const base proto.Addr = 0x1_0000

// Lane address layout. Mid-run allocations (lock-free node carving) go
// through per-thread lanes: bump arenas far above the shared space, one
// home chunk per thread. Every address a workload draws mid-run, and with
// it every golden figure and fingerprint, follows from this layout.
const (
	// laneBase is the first lane address; everything below it belongs to
	// the shared wiring-time space. All lane addresses stay below 2^32:
	// counted-pointer structures (PLJ queue) pack (address, serial) into
	// one 64-bit word with a 32-bit address field.
	laneBase proto.Addr = 1 << 28
	// laneStride is the size of a lane chunk (1 MiB — ~16k line-padded
	// two-word nodes).
	laneStride proto.Addr = 1 << 20
	// maxLanes bounds the lane index (thread/core ID). Thread i's home
	// chunk is chunk i; the home chunks end at
	// laneBase + maxLanes*laneStride = 0x5000_0000.
	maxLanes = 1024
	// maxChunks is the number of chunks below 2^32. Chunks from maxLanes
	// on are overflow chunks, handed out in allocation order to whichever
	// lane fills its current chunk.
	maxChunks = int((1<<32 - laneBase) / laneStride)
)

// lane is one thread's bump arena: the unused rest of its current chunk.
type lane struct {
	next  proto.Addr
	limit proto.Addr
}

// Space is a simulated address space with region tagging.
type Space struct {
	next       proto.Addr
	regionOf   map[proto.Addr]proto.RegionID // per word
	regionIDs  map[string]proto.RegionID
	nextRegion proto.RegionID

	// lanes[i] is thread i's arena, created on first use.
	lanes [maxLanes]*lane
	// chunks[i] holds the per-word region tags of the chunk at
	// laneBase + i*laneStride (nil until the chunk is handed out).
	chunks [][]uint8
	// nextChunk is the next overflow chunk to hand out.
	nextChunk int
}

// New returns an empty space. Region 0 ("default") is pre-assigned to all
// otherwise untagged data.
func New() *Space {
	return &Space{
		next:       base,
		regionOf:   make(map[proto.Addr]proto.RegionID),
		regionIDs:  map[string]proto.RegionID{"default": 0},
		nextRegion: 1,
		nextChunk:  maxLanes,
	}
}

// Region returns the region ID for name, allocating one on first use.
func (s *Space) Region(name string) proto.RegionID {
	if id, ok := s.regionIDs[name]; ok {
		return id
	}
	id := s.nextRegion
	if id >= proto.MaxRegions {
		panic("alloc: out of region IDs")
	}
	s.nextRegion++
	s.regionIDs[name] = id
	return id
}

// Alloc reserves words contiguous words tagged with region and returns the
// base address (word-aligned).
func (s *Space) Alloc(words int, region proto.RegionID) proto.Addr {
	if words <= 0 {
		panic("alloc: non-positive size")
	}
	a := s.next
	s.next += proto.Addr(words * proto.WordBytes)
	if s.next > laneBase {
		panic("alloc: shared space collides with lane arenas")
	}
	for i := 0; i < words; i++ {
		s.regionOf[a+proto.Addr(i*proto.WordBytes)] = region
	}
	return a
}

// AllocAligned reserves words words starting on a fresh cache line,
// consuming the remainder of the line as padding (the paper notes most
// software pads lock variables to avoid false sharing).
func (s *Space) AllocAligned(words int, region proto.RegionID) proto.Addr {
	if rem := s.next % proto.LineBytes; rem != 0 {
		s.next += proto.LineBytes - rem
	}
	return s.Alloc(words, region)
}

// AllocPadded reserves a single word alone on its own cache line — the
// padded-lock layout used for all synchronization variables unless a
// workload opts out (the §7.1.1 padding ablation).
func (s *Space) AllocPadded(region proto.RegionID) proto.Addr {
	a := s.AllocAligned(1, region)
	s.next = a + proto.LineBytes // consume the rest of the line
	return a
}

// LaneAllocAligned reserves words words for thread laneID, starting on a
// fresh cache line of the thread's arena (see the lane layout constants).
// It is the mid-run allocation path: safe to call from workload code at
// any simulated time. When the lane's current chunk is full the lane
// continues in the next overflow chunk; a single request larger than a
// chunk panics.
func (s *Space) LaneAllocAligned(laneID, words int, region proto.RegionID) proto.Addr {
	if laneID < 0 || laneID >= maxLanes {
		panic("alloc: lane ID out of range")
	}
	if words <= 0 {
		panic("alloc: non-positive size")
	}
	size := proto.Addr(words * proto.WordBytes)
	if size > laneStride {
		panic("alloc: lane overflow")
	}
	ln := s.lanes[laneID]
	if ln == nil {
		ln = &lane{}
		s.lanes[laneID] = ln
		s.takeChunk(ln, laneID)
	}
	if rem := ln.next % proto.LineBytes; rem != 0 {
		ln.next += proto.LineBytes - rem
	}
	if ln.next+size > ln.limit {
		if s.nextChunk >= maxChunks {
			panic("alloc: lane chunks exhausted the 32-bit address space")
		}
		s.takeChunk(ln, s.nextChunk)
		s.nextChunk++
	}
	a := ln.next
	ln.next += size
	tags := s.chunks[(a-laneBase)/laneStride]
	slot := (a - laneBase) % laneStride / proto.WordBytes
	for i := 0; i < words; i++ {
		tags[slot+proto.Addr(i)] = uint8(region)
	}
	return a
}

// takeChunk points ln at chunk ci.
func (s *Space) takeChunk(ln *lane, ci int) {
	if ci >= len(s.chunks) {
		s.chunks = append(s.chunks, make([][]uint8, ci+1-len(s.chunks))...)
	}
	s.chunks[ci] = make([]uint8, laneStride/proto.WordBytes)
	ln.next = laneBase + proto.Addr(ci)*laneStride
	ln.limit = ln.next + laneStride
}

// RegionOf implements proto.RegionMapper.
func (s *Space) RegionOf(a proto.Addr) proto.RegionID {
	w := a.Word()
	if w >= laneBase {
		ci := (w - laneBase) / laneStride
		if ci >= proto.Addr(len(s.chunks)) || s.chunks[ci] == nil {
			return 0
		}
		return proto.RegionID(s.chunks[ci][(w-laneBase)%laneStride/proto.WordBytes])
	}
	return s.regionOf[w]
}

// Used returns the number of bytes allocated so far.
func (s *Space) Used() uint64 { return uint64(s.next - base) }

// String summarizes the space for diagnostics.
func (s *Space) String() string {
	return fmt.Sprintf("alloc.Space{%d bytes, %d regions}", s.Used(), s.nextRegion)
}

var _ proto.RegionMapper = (*Space)(nil)
