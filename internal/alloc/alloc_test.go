package alloc

import (
	"testing"
	"testing/quick"

	"denovosync/internal/proto"
)

func TestRegionNaming(t *testing.T) {
	s := New()
	a := s.Region("alpha")
	b := s.Region("beta")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := s.Region("alpha"); got != a {
		t.Fatal("same name returned different ID")
	}
	if s.Region("default") != 0 {
		t.Fatal("default region is not 0")
	}
}

func TestAllocTagsWords(t *testing.T) {
	s := New()
	r := s.Region("data")
	a := s.Alloc(4, r)
	for i := 0; i < 4; i++ {
		if got := s.RegionOf(a + proto.Addr(i*proto.WordBytes)); got != r {
			t.Fatalf("word %d region = %d, want %d", i, got, r)
		}
	}
	if s.RegionOf(a+16) == r && s.RegionOf(a+16) != 0 {
		t.Fatal("untagged word has a region")
	}
}

func TestAllocAligned(t *testing.T) {
	s := New()
	s.Alloc(3, 0) // misalign the bump pointer
	a := s.AllocAligned(2, 0)
	if a%proto.LineBytes != 0 {
		t.Fatalf("AllocAligned returned %v, not line-aligned", a)
	}
}

func TestAllocPadded(t *testing.T) {
	s := New()
	a := s.AllocPadded(0)
	b := s.AllocPadded(0)
	if a.Line() == b.Line() {
		t.Fatal("padded allocations share a line")
	}
	if a%proto.LineBytes != 0 {
		t.Fatal("padded word not line-aligned")
	}
}

func TestAllocPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	s.Alloc(0, 0)
}

// Property: allocations never overlap, regardless of the sequence of
// sizes and alignment kinds.
func TestAllocNonOverlapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		type span struct{ lo, hi proto.Addr }
		var spans []span
		for _, op := range ops {
			words := int(op%7) + 1
			var a proto.Addr
			switch op % 3 {
			case 0:
				a = s.Alloc(words, 0)
			case 1:
				a = s.AllocAligned(words, 0)
			case 2:
				a = s.AllocPadded(0)
				words = 1
			}
			sp := span{a, a + proto.Addr(words*proto.WordBytes)}
			for _, o := range spans {
				if sp.lo < o.hi && o.lo < sp.hi {
					return false
				}
			}
			spans = append(spans, sp)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUsed(t *testing.T) {
	s := New()
	if s.Used() != 0 {
		t.Fatal("fresh space reports usage")
	}
	s.Alloc(4, 0)
	if s.Used() != 16 {
		t.Fatalf("Used = %d, want 16", s.Used())
	}
}

// TestLaneOverflowChunks: a lane that fills its home chunk continues in
// overflow chunks handed out in allocation order above the home chunks,
// and RegionOf resolves addresses in every chunk.
func TestLaneOverflowChunks(t *testing.T) {
	s := New()
	r1, r2, r3 := s.Region("one"), s.Region("two"), s.Region("three")
	const words = 2000 // 8000 bytes: a whole number of lines
	home := laneBase + 3*laneStride
	first := s.LaneAllocAligned(3, words, r1)
	if first != home {
		t.Fatalf("first lane-3 block at %d, want its home chunk %d", first, home)
	}
	fit := int(laneStride / (words * proto.WordBytes)) // blocks per chunk
	last := first
	for i := 1; i < fit; i++ {
		last = s.LaneAllocAligned(3, words, r1)
	}
	if want := home + proto.Addr((fit-1)*words*proto.WordBytes); last != want {
		t.Fatalf("last home block at %d, want %d", last, want)
	}
	overflow := laneBase + maxLanes*laneStride
	next := s.LaneAllocAligned(3, words, r2)
	if next != overflow {
		t.Fatalf("lane-3 overflow block at %d, want the first overflow chunk %d", next, overflow)
	}
	for _, c := range []struct {
		a    proto.Addr
		want proto.RegionID
	}{
		{first, r1}, {last + (words-1)*proto.WordBytes, r1},
		{next, r2}, {next + (words-1)*proto.WordBytes, r2},
		{next + words*proto.WordBytes, 0}, // past the block: untagged
	} {
		if got := s.RegionOf(c.a); got != c.want {
			t.Errorf("RegionOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	// Another lane overflowing takes the following chunk.
	for a := s.LaneAllocAligned(5, words, r3); a < overflow; a = s.LaneAllocAligned(5, words, r3) {
	}
	if got := s.RegionOf(overflow + laneStride); got != r3 {
		t.Errorf("second overflow chunk region = %d, want %d", got, r3)
	}
}

func TestLaneOverflowPanics(t *testing.T) {
	expectPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if p := recover(); p != want {
				t.Errorf("%s: panic %v, want %q", name, p, want)
			}
		}()
		f()
	}
	s := New()
	expectPanic("request larger than a chunk", "alloc: lane overflow", func() {
		s.LaneAllocAligned(0, int(laneStride/proto.WordBytes)+1, 0)
	})
	// Every chunk below 2^32 is handed out: the next overflow must refuse
	// rather than hand out an address the PLJ queue cannot pack.
	s.nextChunk = maxChunks
	whole := int(laneStride / proto.WordBytes)
	s.LaneAllocAligned(1, whole, 0) // fills lane 1's home chunk exactly
	expectPanic("chunks past 2^32", "alloc: lane chunks exhausted the 32-bit address space", func() {
		s.LaneAllocAligned(1, 1, 0)
	})
	if top := laneBase + proto.Addr(maxChunks)*laneStride; top != 1<<32 {
		t.Fatalf("chunk area ends at %d, want 2^32", top)
	}
}
