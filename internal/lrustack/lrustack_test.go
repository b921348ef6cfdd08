package lrustack

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveDepth is an O(n) reference model: a move-to-front list.
type naiveDepth struct {
	order []mem.Line
}

func (n *naiveDepth) ref(line mem.Line) int64 {
	for i, l := range n.order {
		if l == line {
			copy(n.order[1:i+1], n.order[:i])
			n.order[0] = line
			return int64(i)
		}
	}
	n.order = append([]mem.Line{line}, n.order...)
	return Infinite
}

// TestStackMatchesNaive cross-checks the Fenwick implementation against
// the move-to-front model on random streams.
func TestStackMatchesNaive(t *testing.T) {
	rng := trace.NewRNG(11)
	s := newFenwick()
	n := &naiveDepth{}
	for i := 0; i < 50_000; i++ {
		line := mem.Line(rng.Uint64n(300))
		got, want := s.Ref(line), n.ref(line)
		if got != want {
			t.Fatalf("ref %d line %d: depth %d, want %d", i, line, got, want)
		}
	}
	if s.Live() != int64(len(n.order)) {
		t.Fatalf("live = %d, want %d", s.Live(), len(n.order))
	}
}

// TestStackMatchesNaiveSmallAlphabet forces heavy compaction.
func TestStackMatchesNaiveSmallAlphabet(t *testing.T) {
	rng := trace.NewRNG(12)
	s := newFenwick()
	n := &naiveDepth{}
	for i := 0; i < 100_000; i++ {
		line := mem.Line(rng.Uint64n(8))
		if got, want := s.Ref(line), n.ref(line); got != want {
			t.Fatalf("ref %d: depth %d, want %d", i, got, want)
		}
	}
}

// TestStackSequential: depth of a repeated circular sweep over N lines
// is N−1 for every non-cold reference.
func TestStackSequential(t *testing.T) {
	s := newFenwick()
	const n = 1000
	g := trace.NewCircular(n)
	for i := 0; i < n; i++ {
		if d := s.Ref(mem.Line(g.Next())); d != Infinite {
			t.Fatalf("cold ref %d depth %d", i, d)
		}
	}
	for i := 0; i < 5*n; i++ {
		if d := s.Ref(mem.Line(g.Next())); d != n-1 {
			t.Fatalf("warm ref %d depth %d, want %d", i, d, n-1)
		}
	}
}

// TestStackImmediateRepeat: re-referencing the same line has depth 0.
func TestStackImmediateRepeat(t *testing.T) {
	s := newFenwick()
	s.Ref(42)
	for i := 0; i < 10; i++ {
		if d := s.Ref(42); d != 0 {
			t.Fatalf("repeat depth = %d, want 0", d)
		}
	}
}

// TestProfileMatchesCacheSimulation: the single-pass profile must equal
// miss counts of independently simulated fully-associative LRU caches at
// every threshold (the Mattson inclusion property).
func TestProfileMatchesCacheSimulation(t *testing.T) {
	thresholds := []int64{16, 64, 256}
	s := New(thresholds, 0)

	caches := make([]*cache.FullyAssoc, len(thresholds))
	misses := make([]uint64, len(thresholds))
	for i, th := range thresholds {
		caches[i] = cache.NewFullyAssoc(int(th))
	}

	rng := trace.NewRNG(77)
	for i := 0; i < 200_000; i++ {
		// mixture: hot set + occasional cold lines
		var line mem.Line
		if rng.Uint64n(10) < 8 {
			line = mem.Line(rng.Uint64n(200))
		} else {
			line = mem.Line(1000 + rng.Uint64n(100_000))
		}
		s.Ref(line)
		for j, c := range caches {
			if !c.Ref(line) {
				misses[j]++
			}
		}
	}
	p := s.Profile()
	for i := range thresholds {
		if p.Misses[i] != misses[i] {
			t.Fatalf("threshold %d: profile misses %d, cache simulation %d",
				thresholds[i], p.Misses[i], misses[i])
		}
	}
}

// TestProfileMonotone: p(x) must be non-increasing in x (inclusion).
func TestProfileMonotone(t *testing.T) {
	s := New(PaperThresholds(6), 0)
	rng := trace.NewRNG(3)
	for i := 0; i < 300_000; i++ {
		s.Ref(mem.Line(rng.Uint64n(5000)))
	}
	p := s.Profile()
	for i := 1; i < len(p.Thresholds); i++ {
		if p.Misses[i] > p.Misses[i-1] {
			t.Fatalf("p(x) not monotone at %d: %d > %d", p.Thresholds[i], p.Misses[i], p.Misses[i-1])
		}
	}
	if p.Cold == 0 || p.Refs != 300_000 {
		t.Fatalf("bookkeeping: cold=%d refs=%d", p.Cold, p.Refs)
	}
}

// TestPaperThresholds: 16KB..16MB at 64B lines = 256..256k lines, 11
// points.
func TestPaperThresholds(t *testing.T) {
	th := PaperThresholds(6)
	if len(th) != 11 || th[0] != 256 || th[len(th)-1] != 256<<10 {
		t.Fatalf("thresholds = %v", th)
	}
}

// TestStackDepthProperty: property test — depth of a line equals the
// number of distinct lines referenced strictly between two references to
// it.
func TestStackDepthProperty(t *testing.T) {
	f := func(fill []uint16, target uint16) bool {
		s := newFenwick()
		s.Ref(mem.Line(target))
		for _, l := range fill {
			s.Ref(mem.Line(l))
		}
		// Expected depth: distinct non-target lines after the LAST
		// occurrence of target (in the stream "target, fill...").
		last := -1
		for i, l := range fill {
			if l == target {
				last = i
			}
		}
		d := map[uint16]bool{}
		for _, l := range fill[last+1:] {
			if l != target {
				d[l] = true
			}
		}
		return s.Ref(mem.Line(target)) == int64(len(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiStackIndependent: routing disjoint streams to different
// stacks must give each the depth it would see alone. Two interleaved
// circular sweeps of 16 lines have depth 15 each on their own stacks
// (a miss at 8, a hit at 16); on one shared stack they would have depth
// 31 and miss at 16 too.
func TestMultiStackIndependent(t *testing.T) {
	ms := NewMultiStack(4, []int64{8, 16}, 0)
	gA, gB := trace.NewCircular(16), trace.NewCircular(16)
	for i := 0; i < 16+64; i++ {
		ms.Ref(0, mem.Line(gA.Next()))
		ms.Ref(1, mem.Line(1000+gB.Next()))
	}
	p := ms.Profile()
	if p.Refs != 2*16+2*64 || p.Cold != 2*16 {
		t.Fatalf("profile refs = %d cold = %d", p.Refs, p.Cold)
	}
	if p.Misses[0] != p.Refs || p.Misses[1] != p.Cold {
		t.Fatalf("misses = %v, want [%d %d]", p.Misses, p.Refs, p.Cold)
	}
}

// TestNewRejectsBadGrid: a grid that is not positive and strictly
// ascending, or too long for a byte bucket index, is a programming
// error caught at construction.
func TestNewRejectsBadGrid(t *testing.T) {
	long := make([]int64, 256)
	for i := range long {
		long[i] = int64(i + 1)
	}
	for _, th := range [][]int64{{0, 4}, {4, 4}, {8, 2}, long} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", th[:min(len(th), 4)])
				}
			}()
			New(th, 0)
		}()
	}
}
