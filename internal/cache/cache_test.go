package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestFullyAssocLRUOrder checks exact LRU behaviour on a tiny cache.
func TestFullyAssocLRUOrder(t *testing.T) {
	c := NewFullyAssoc(3)
	for _, l := range []mem.Line{1, 2, 3} {
		if _, v := c.Insert(l, 0); v.Valid {
			t.Fatalf("unexpected victim %v while filling", v)
		}
	}
	// Touch 1 → LRU order (oldest first): 2, 3, 1.
	h, ok := c.Access(1)
	if !ok {
		t.Fatal("line 1 missing")
	}
	_ = h
	_, v := c.Insert(4, 0)
	if !v.Valid || v.Line != 2 {
		t.Fatalf("victim = %+v, want line 2", v)
	}
	_, v = c.Insert(5, 0)
	if !v.Valid || v.Line != 3 {
		t.Fatalf("victim = %+v, want line 3", v)
	}
	_, v = c.Insert(6, 0)
	if !v.Valid || v.Line != 1 {
		t.Fatalf("victim = %+v, want line 1", v)
	}
}

// TestFullyAssocInvalidate: freed frames are reused before evictions.
func TestFullyAssocInvalidate(t *testing.T) {
	c := NewFullyAssoc(2)
	c.Insert(10, FlagModified)
	c.Insert(20, 0)
	fl, ok := c.Invalidate(10)
	if !ok || fl != FlagModified {
		t.Fatalf("Invalidate(10) = (%d,%v)", fl, ok)
	}
	if _, ok := c.Lookup(10); ok {
		t.Fatal("line 10 still present after invalidate")
	}
	if c.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", c.Resident())
	}
	// Insert must reuse the freed frame: no victim.
	_, v := c.Insert(30, 0)
	if v.Valid {
		t.Fatalf("unexpected victim %+v after invalidate", v)
	}
	// Now full again: next insert evicts LRU (20).
	_, v = c.Insert(40, 0)
	if !v.Valid || v.Line != 20 {
		t.Fatalf("victim = %+v, want line 20", v)
	}
}

// TestSetAssocMapping: a direct-mapped cache must conflict on congruent
// lines and keep non-congruent ones.
func TestSetAssocMapping(t *testing.T) {
	c := NewSetAssoc(Geometry{Ways: 1, SetsLog2: 2}) // 4 sets, direct-mapped
	c.Insert(0, 0)
	c.Insert(1, 0)
	_, v := c.Insert(4, 0) // 4 mod 4 == 0: evicts line 0
	if !v.Valid || v.Line != 0 {
		t.Fatalf("victim = %+v, want line 0", v)
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("line 1 evicted from a different set")
	}
}

// TestSetAssocLRUWithinSet: 2-way set must evict the least recently used
// of the two candidates.
func TestSetAssocLRUWithinSet(t *testing.T) {
	c := NewSetAssoc(Geometry{Ways: 2, SetsLog2: 1}) // 2 sets, 2 ways
	c.Insert(0, 0)                                   // set 0
	c.Insert(2, 0)                                   // set 0
	c.Access(0)                                      // 2 becomes LRU
	_, v := c.Insert(4, 0)
	if !v.Valid || v.Line != 2 {
		t.Fatalf("victim = %+v, want line 2", v)
	}
}

// TestSetAssocInsertResidentPanics documents the contract.
func TestSetAssocInsertResidentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate insert")
		}
	}()
	c := NewSetAssoc(Geometry{Ways: 2, SetsLog2: 1})
	c.Insert(3, 0)
	c.Insert(3, 0)
}

// TestSkewIndexInRange: property test — indices stay in range and way 0
// differs from other ways often enough to spread conflicts.
func TestSkewIndexInRange(t *testing.T) {
	f := func(line uint64, wayRaw uint8) bool {
		const setsLog2 = 9
		way := int(wayRaw % 4)
		idx := SkewIndex(way, mem.Line(line), setsLog2)
		return idx < 1<<setsLog2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestSkewSpreadsConflicts: lines congruent modulo the set count (a
// power-of-two stride) must map to different sets in at least one other
// way — the motivation for skewed associativity.
func TestSkewSpreadsConflicts(t *testing.T) {
	const setsLog2 = 9
	// 64 lines all congruent in the plain index.
	base := mem.Line(12345)
	spread := 0
	for i := 1; i < 64; i++ {
		l := base + mem.Line(i)<<setsLog2
		differs := false
		for w := 1; w < 4; w++ {
			if SkewIndex(w, l, setsLog2) != SkewIndex(w, base, setsLog2) {
				differs = true
			}
		}
		if differs {
			spread++
		}
	}
	if spread < 60 {
		t.Fatalf("only %d/63 conflicting lines spread by skewing", spread)
	}
}

// TestSkewedBeatsPlainOnPowerOfTwoStride: a skewed cache must suffer far
// fewer misses than a same-geometry plain cache on a power-of-two strided
// stream that thrashes a single set.
func TestSkewedBeatsPlainOnPowerOfTwoStride(t *testing.T) {
	geo := Geometry{Ways: 4, SetsLog2: 7} // 512 frames
	run := func(skewed bool) int {
		g := geo
		g.Skewed = skewed
		c := NewSetAssoc(g)
		misses := 0
		// 16 lines with stride 2^7: all in plain set 0.
		for iter := 0; iter < 200; iter++ {
			for i := 0; i < 16; i++ {
				l := mem.Line(i << 7)
				if _, ok := c.Access(l); !ok {
					misses++
					c.Insert(l, 0)
				}
			}
		}
		return misses
	}
	plain, skewed := run(false), run(true)
	if skewed*4 > plain {
		t.Fatalf("skewing ineffective: plain=%d skewed=%d misses", plain, skewed)
	}
}

// TestCacheMissRatioMatchesCapacity: a cache must hold a working set that
// fits and thrash on one that does not (sanity of the replacement glue).
func TestCacheMissRatioMatchesCapacity(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Cache
	}{
		{"fullyassoc", func() Cache { return NewFullyAssoc(256) }},
		{"setassoc", func() Cache { return NewSetAssoc(Geometry{Ways: 4, SetsLog2: 6}) }},
		{"skewed", func() Cache { return NewSetAssoc(Geometry{Ways: 4, SetsLog2: 6, Skewed: true}) }},
	} {
		c := tc.mk()
		miss := func(n uint64, laps int) int {
			misses := 0
			g := trace.NewCircular(n)
			for i := 0; i < laps*int(n); i++ {
				l := mem.Line(g.Next())
				if _, ok := c.Access(l); !ok {
					misses++
					c.Insert(l, 0)
				}
			}
			return misses
		}
		// Working set of 128 lines in a 256-frame cache: only cold misses
		// after the first lap (fully-assoc is exact; set-assoc may have a
		// few conflict misses).
		m := miss(128, 10)
		if m > 180 {
			t.Errorf("%s: small working set: %d misses, want ≈128", tc.name, m)
		}
		// Working set of 1024 lines with LRU and circular access: near-100%
		// miss rate for fully-assoc (LRU's pathological case).
		c = tc.mk()
		m = miss(1024, 5)
		if m < 4*1024 {
			t.Errorf("%s: oversized circular working set: %d misses, want ≈5120", tc.name, m)
		}
	}
}

// TestGeometryFor checks the capacity arithmetic for the paper's
// configurations.
func TestGeometryFor(t *testing.T) {
	// 16KB, 64B lines, 4 ways → 64 sets.
	g := GeometryFor(16<<10, 6, 4, false)
	if g.SetsLog2 != 6 || g.Ways != 4 || g.Frames() != 256 {
		t.Fatalf("16KB L1 geometry = %+v", g)
	}
	// 512KB, 64B lines, 4 ways → 2048 sets.
	g = GeometryFor(512<<10, 6, 4, true)
	if g.SetsLog2 != 11 || g.Frames() != 8192 || !g.Skewed {
		t.Fatalf("512KB L2 geometry = %+v", g)
	}
}

// TestFlagsRoundTrip for both implementations.
func TestFlagsRoundTrip(t *testing.T) {
	for _, c := range []Cache{NewFullyAssoc(8), NewSetAssoc(Geometry{Ways: 2, SetsLog2: 2})} {
		h, _ := c.Insert(5, 0)
		c.SetFlags(h, FlagModified)
		if c.Flags(h) != FlagModified {
			t.Fatal("flags lost")
		}
		if c.LineAt(h) != 5 {
			t.Fatal("LineAt mismatch")
		}
		fl, ok := c.Invalidate(5)
		if !ok || fl != FlagModified {
			t.Fatal("invalidate flags mismatch")
		}
	}
}

// TestFullyAssocStress property-checks the map/list consistency under a
// random operation mix against a reference model.
func TestFullyAssocStress(t *testing.T) {
	const capLines = 32
	c := NewFullyAssoc(capLines)
	rng := trace.NewRNG(5)
	resident := map[mem.Line]bool{}
	for i := 0; i < 200_000; i++ {
		l := mem.Line(rng.Uint64n(64))
		switch rng.Uint64n(3) {
		case 0, 1:
			if _, ok := c.Access(l); !ok {
				_, v := c.Insert(l, 0)
				resident[l] = true
				if v.Valid {
					if !resident[v.Line] {
						t.Fatalf("evicted non-resident line %d", v.Line)
					}
					delete(resident, v.Line)
				}
			} else if !resident[l] {
				t.Fatalf("hit on non-resident line %d", l)
			}
		case 2:
			_, ok := c.Invalidate(l)
			if ok != resident[l] {
				t.Fatalf("invalidate(%d) = %v, model says %v", l, ok, resident[l])
			}
			delete(resident, l)
		}
		if c.Resident() != len(resident) {
			t.Fatalf("resident count %d, model %d", c.Resident(), len(resident))
		}
		if c.Resident() > capLines {
			t.Fatal("over capacity")
		}
	}
}

// TestSkewFramesMatchSkewIndex: the hoisted per-way skew is SkewIndex,
// way for way, at every set count including the single-set degenerate.
func TestSkewFramesMatchSkewIndex(t *testing.T) {
	rng := trace.NewRNG(5)
	for _, sl := range []uint{0, 1, 3, 9, 13} {
		s := NewSkew(8, sl)
		fr := make([]int32, 8)
		for i := 0; i < 2000; i++ {
			line := mem.Line(rng.Uint64())
			s.Frames(line, fr)
			for w, f := range fr {
				if want := int32(w)<<sl + int32(SkewIndex(w, line, sl)); f != want {
					t.Fatalf("setsLog2 %d way %d line %#x: frame %d, want %d", sl, w, line, f, want)
				}
			}
		}
	}
}
