package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Access is Lookup that makes a hit the most recently used line, with
// no victim recorded: the tests' second path into Insert, besides
// Probe and InsertProbed.
func (c *SetAssoc) Access(line mem.Line) (Handle, bool) {
	h, ok := c.Lookup(line)
	if ok {
		c.clock++
		c.frames[h].stamp = c.clock
	}
	return h, ok
}

// TestFullyAssocLRUOrder checks exact LRU behaviour on a tiny cache:
// each reference's hit or miss follows from the recency order alone.
func TestFullyAssocLRUOrder(t *testing.T) {
	c := NewFullyAssoc(3)
	for i, step := range []struct {
		line mem.Line
		hit  bool
	}{
		{1, false}, {2, false}, {3, false}, // fill; LRU order 1, 2, 3
		{1, true},  // LRU order 2, 3, 1
		{4, false}, // evicts 2
		{3, true},  // LRU order 1, 4, 3
		{2, false}, // evicts 1
		{4, true},  // LRU order 3, 2, 4
		{1, false}, // evicts 3
		{2, true}, {4, true}, {1, true},
		{3, false}, // evicts 2
		{2, false}, // evicts 4
	} {
		if hit := c.Ref(step.line); hit != step.hit {
			t.Fatalf("step %d: Ref(%d) hit %v, want %v", i, step.line, hit, step.hit)
		}
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
	setAssoc := func(geo Geometry) func() func(mem.Line) bool {
		return func() func(mem.Line) bool {
			c := NewSetAssoc(geo)
			return func(l mem.Line) bool {
				if _, ok := c.Access(l); ok {
					return true
				}
				c.Insert(l, 0)
				return false
			}
		}
	}
	for _, tc := range []struct {
		name string
		mk   func() func(mem.Line) bool // a fresh cache's hit-or-fill reference
	}{
		{"fullyassoc", func() func(mem.Line) bool { return NewFullyAssoc(256).Ref }},
		{"setassoc", setAssoc(Geometry{Ways: 4, SetsLog2: 6})},
		{"skewed", setAssoc(Geometry{Ways: 4, SetsLog2: 6, Skewed: true})},
	} {
		ref := tc.mk()
		miss := func(n uint64, laps int) int {
			misses := 0
			g := trace.NewCircular(n)
			for i := 0; i < laps*int(n); i++ {
				if !ref(mem.Line(g.Next())) {
					misses++
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
		ref = tc.mk()
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

// TestFlagsRoundTrip: flag bits written through a handle read back.
func TestFlagsRoundTrip(t *testing.T) {
	c := NewSetAssoc(Geometry{Ways: 2, SetsLog2: 2})
	h, _ := c.Insert(5, 0)
	c.SetFlags(h, FlagModified)
	if c.Flags(h) != FlagModified {
		t.Fatal("flags lost")
	}
	if h2, ok := c.Lookup(5); !ok || c.Flags(h2) != FlagModified {
		t.Fatalf("Lookup(5) = (%d, %v), flags not found through it", h2, ok)
	}
}

// TestFullyAssocStress checks the map/list consistency under a random
// reference stream against a reference model: a slice of the resident
// lines, most recently used first.
func TestFullyAssocStress(t *testing.T) {
	const capLines = 32
	c := NewFullyAssoc(capLines)
	rng := trace.NewRNG(5)
	var model []mem.Line
	for i := 0; i < 200_000; i++ {
		l := mem.Line(rng.Uint64n(64))
		at := -1
		for j, m := range model {
			if m == l {
				at = j
				break
			}
		}
		if hit := c.Ref(l); hit != (at >= 0) {
			t.Fatalf("ref %d: Ref(%d) hit %v, model says %v", i, l, hit, at >= 0)
		}
		if at >= 0 {
			model = append(model[:at], model[at+1:]...)
		} else if len(model) == capLines {
			model = model[:capLines-1]
		}
		model = append([]mem.Line{l}, model...)
		if len(c.index) != len(model) {
			t.Fatalf("ref %d: resident count %d, model %d", i, len(c.index), len(model))
		}
	}
	// The list, walked from the MRU end, is the model's order.
	f := c.head
	for j, m := range model {
		if f < 0 || c.lines[f] != m {
			t.Fatalf("LRU list position %d: frame %d, model line %d", j, f, m)
		}
		f = c.next[f]
	}
	if f >= 0 {
		t.Fatalf("LRU list longer than the model's %d lines", len(model))
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

// TestCandsMatchIndexing: the candidates evaluated once for several
// caches are, way for way, the frames a cache of the geometry indexes —
// w<<setsLog2 + SkewIndex(w, line, setsLog2) when skewed, w<<setsLog2 +
// the line's set when set-indexed — and walking a cache from them
// (ProbeAt, LookupAt) leaves it exactly as its own Probe and Lookup do.
func TestCandsMatchIndexing(t *testing.T) {
	rng := trace.NewRNG(7)
	for _, skewed := range []bool{true, false} {
		for _, sl := range []uint{0, 1, 3, 9, 11} {
			geo := Geometry{Ways: 4, SetsLog2: sl, Skewed: skewed}
			k := NewCands(geo)
			own, shared := NewSetAssoc(geo), NewSetAssoc(geo)
			span := uint64(3 * geo.Frames())
			for i := 0; i < 5000; i++ {
				line := mem.Line(rng.Uint64())
				k.Eval(line)
				for w, f := range k.frames {
					set := int32(uint64(line) & (1<<sl - 1))
					if skewed {
						set = int32(SkewIndex(w, line, sl))
					}
					if want := int32(w)<<sl + set; f != want {
						t.Fatalf("%+v way %d line %#x: candidate %d, want %d", geo, w, line, f, want)
					}
				}
				line = mem.Line(rng.Uint64n(span))
				k.Eval(line)
				if i%4 == 0 {
					h1, ok1 := own.Lookup(line)
					h2, ok2 := shared.LookupAt(k)
					if h1 != h2 || ok1 != ok2 {
						t.Fatalf("%+v line %#x: Lookup (%d,%v), LookupAt (%d,%v)", geo, line, h1, ok1, h2, ok2)
					}
					continue
				}
				h1, ok1 := own.Probe(line)
				h2, ok2 := shared.ProbeAt(k)
				if h1 != h2 || ok1 != ok2 {
					t.Fatalf("%+v line %#x: Probe (%d,%v), ProbeAt (%d,%v)", geo, line, h1, ok1, h2, ok2)
				}
				if !ok1 {
					own.InsertProbed(line, 0)
					shared.InsertProbed(line, 0)
				}
			}
			if !reflect.DeepEqual(own.State(), shared.State()) {
				t.Fatalf("%+v: a cache walked from shared candidates diverged from its own walks", geo)
			}
		}
	}
}

// TestSetAssocSetStateRejectsUnreachable: a checkpoint is input from
// outside the program, so SetState must refuse a state no cache can
// reach — a valid bit that disagrees with the stamp (stamp 0 is what
// marks a frame invalid), a stamp past the clock, a resident count that
// is not the number of valid frames — and leave the cache unchanged.
func TestSetAssocSetStateRejectsUnreachable(t *testing.T) {
	geo := Geometry{Ways: 2, SetsLog2: 2}
	src := NewSetAssoc(geo)
	for _, l := range []mem.Line{0, 1, 4, 5, 1} {
		if _, ok := src.Probe(l); !ok {
			src.InsertProbed(l, FlagModified)
		}
	}
	base := src.State() // frames 0, 1, 4, 5 valid; 2, 3, 6, 7 empty
	for _, tc := range []struct {
		name string
		edit func(*SetAssocState)
		ok   bool
	}{
		{"reachable", func(*SetAssocState) {}, true},
		{"valid without stamp", func(s *SetAssocState) { s.Valid[2] = true; s.Count++ }, false},
		{"stamp without valid", func(s *SetAssocState) { s.Stamp[2] = 1 }, false},
		{"valid cleared", func(s *SetAssocState) { s.Valid[0] = false; s.Count-- }, false},
		{"stamp past clock", func(s *SetAssocState) { s.Stamp[0] = s.Clock + 1 }, false},
		{"count high", func(s *SetAssocState) { s.Count++ }, false},
		{"count low", func(s *SetAssocState) { s.Count-- }, false},
		{"short column", func(s *SetAssocState) { s.Stamp = s.Stamp[1:] }, false},
		{"other geometry", func(s *SetAssocState) { s.Geo.Skewed = true }, false},
	} {
		st := src.State()
		tc.edit(&st)
		c := NewSetAssoc(geo)
		before := c.State()
		err := c.SetState(st)
		if (err == nil) != tc.ok {
			t.Errorf("%s: SetState error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		want := before
		if tc.ok {
			want = base
		}
		if got := c.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after SetState %+v, want %+v", tc.name, got, want)
		}
	}
}
