package lrustack

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveLimited is the O(n) reference model for the capped stack: a
// move-to-front list that drops its tail past the cap.
type naiveLimited struct {
	order   []mem.Line
	cap     int
	dropped uint64
}

func (n *naiveLimited) ref(line mem.Line) int64 {
	for i, l := range n.order {
		if l == line {
			copy(n.order[1:i+1], n.order[:i])
			n.order[0] = line
			return int64(i)
		}
	}
	n.order = append([]mem.Line{line}, n.order...)
	if len(n.order) > n.cap {
		n.order = n.order[:n.cap]
		n.dropped++
	}
	return Infinite
}

// TestLimitedMatchesNaive cross-checks the capped Fenwick stack against
// the move-to-front model on a random stream whose alphabet (300) far
// exceeds the cap (50), forcing heavy eviction; 50k refs with live
// capped at 50 also force many compaction cycles (used grows past the
// tree repeatedly while live stays small).
func TestLimitedMatchesNaive(t *testing.T) {
	rng := trace.NewRNG(21)
	s := newFenwickLimited(50)
	n := &naiveLimited{cap: 50}
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
	if s.Live() > 50 {
		t.Fatalf("live %d exceeds cap", s.Live())
	}
	if s.Dropped() != n.dropped || s.Dropped() == 0 {
		t.Fatalf("dropped = %d, want %d (nonzero)", s.Dropped(), n.dropped)
	}
}

// TestLimitedEvictionOrder: with cap 2, the third distinct line must
// evict the least recently used one, and re-referencing revives a line
// as a fresh first touch.
func TestLimitedEvictionOrder(t *testing.T) {
	s := newFenwickLimited(2)
	s.Ref(1) // stack: [1]
	s.Ref(2) // stack: [2 1]
	s.Ref(3) // evicts 1 → [3 2]
	if s.Dropped() != 1 || s.Live() != 2 {
		t.Fatalf("after third insert: dropped=%d live=%d", s.Dropped(), s.Live())
	}
	if d := s.Ref(2); d != 1 { // [2 3], 2 survived
		t.Fatalf("surviving line depth = %d, want 1", d)
	}
	if d := s.Ref(1); d != Infinite { // evicted → cold again; evicts 3
		t.Fatalf("evicted line depth = %d, want Infinite", d)
	}
	if d := s.Ref(3); d != Infinite {
		t.Fatalf("line 3 should have been evicted, depth = %d", d)
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
}

// TestLimitedExactBelowCap: the accuracy guarantee — with the cap at or
// above the largest threshold, the capped profile's miss counts equal
// the unbounded profile's at EVERY threshold; only the cold attribution
// differs.
func TestLimitedExactBelowCap(t *testing.T) {
	thresholds := []int64{16, 64, 256}
	full, capped := New(thresholds, 0), New(thresholds, 256)

	rng := trace.NewRNG(31)
	for i := 0; i < 200_000; i++ {
		// hot set + cold tail, as in TestProfileMatchesCacheSimulation
		var line mem.Line
		if rng.Uint64n(10) < 8 {
			line = mem.Line(rng.Uint64n(200))
		} else {
			line = mem.Line(1000 + rng.Uint64n(100_000))
		}
		full.Ref(line)
		capped.Ref(line)
	}
	if capped.Dropped() == 0 {
		t.Fatal("cap never exercised")
	}
	pf, pc := full.Profile(), capped.Profile()
	for i := range thresholds {
		if pf.Misses[i] != pc.Misses[i] {
			t.Fatalf("threshold %d: capped misses %d, unbounded %d",
				thresholds[i], pc.Misses[i], pf.Misses[i])
		}
	}
	if pc.Cold < pf.Cold {
		t.Fatalf("capped cold %d < unbounded cold %d", pc.Cold, pf.Cold)
	}
	// Bookkeeping: every capped first-touch either stays live or was
	// evicted.
	if uint64(capped.Live())+capped.Dropped() != pc.Cold {
		t.Fatalf("live %d + dropped %d != cold %d", capped.Live(), capped.Dropped(), pc.Cold)
	}
}

// TestLimitedUnboundedBelowLimit: a stream that never exceeds the cap
// behaves identically to the unbounded stack and drops nothing.
func TestLimitedUnboundedBelowLimit(t *testing.T) {
	full, capped := newFenwick(), newFenwickLimited(1000)
	rng := trace.NewRNG(41)
	for i := 0; i < 100_000; i++ {
		line := mem.Line(rng.Uint64n(1000))
		if df, dc := full.Ref(line), capped.Ref(line); df != dc {
			t.Fatalf("ref %d: capped depth %d, unbounded %d", i, dc, df)
		}
	}
	if capped.Dropped() != 0 {
		t.Fatalf("dropped %d entries without exceeding the cap", capped.Dropped())
	}
}

// TestMultiStackLimited: per-stack caps and the aggregated Dropped.
func TestMultiStackLimited(t *testing.T) {
	ms := NewMultiStack(4, []int64{8}, 16)
	rng := trace.NewRNG(51)
	for i := 0; i < 40_000; i++ {
		ms.Ref(int(rng.Uint64n(4)), mem.Line(rng.Uint64n(500)))
	}
	var dropped uint64
	for k, s := range ms.Stacks {
		if s.Live() > 16 {
			t.Fatalf("stack %d live %d exceeds cap", k, s.Live())
		}
		dropped += s.Dropped()
	}
	if dropped == 0 || ms.Dropped() != dropped {
		t.Fatalf("Dropped() = %d, want %d (nonzero)", ms.Dropped(), dropped)
	}
	if p := ms.Profile(); p.Refs != 40_000 {
		t.Fatalf("profile refs = %d, want 40000", p.Refs)
	}
}

// TestRefSteadyStateZeroAllocs: once a capped stack holds its limit,
// Ref allocates nothing, though about half the references in the window
// are cold misses that evict. Every allocation over the window counts,
// so an allocation on one reference in thousands fails too.
func TestRefSteadyStateZeroAllocs(t *testing.T) {
	const refs = 100_000
	s := New([]int64{64, 512, 2048}, 4096)
	rng := trace.NewRNG(9)
	for i := 0; i < refs; i++ {
		s.Ref(mem.Line(rng.Uint64n(8192)))
	}
	dropped := s.Dropped()
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < refs; n++ {
			s.Ref(mem.Line(rng.Uint64n(8192)))
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations over %d steady-state references", allocs, refs)
	}
	// AllocsPerRun ran the window twice: once to warm, once measured.
	if s.Dropped()-dropped < refs/2 {
		t.Fatalf("%d evictions over %d references; the window must keep evicting", s.Dropped()-dropped, 2*refs)
	}
}
