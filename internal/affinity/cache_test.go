package affinity

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestAffinityCacheRoundTrip: stored values come back until evicted.
func TestAffinityCacheRoundTrip(t *testing.T) {
	c := NewCache(64, 4)
	for i := 0; i < 16; i++ {
		c.Store(mem.Line(i), int64(100+i))
	}
	for i := 0; i < 16; i++ {
		v, ok := c.Lookup(mem.Line(i))
		if !ok || v != int64(100+i) {
			t.Fatalf("line %d: (%d,%v), want (%d,true)", i, v, ok, 100+i)
		}
	}
	if c.Resident() != 16 {
		t.Fatalf("resident = %d", c.Resident())
	}
}

// TestAffinityCacheUpdateInPlace: storing twice updates, not duplicates.
func TestAffinityCacheUpdateInPlace(t *testing.T) {
	c := NewCache(64, 4)
	c.Store(7, 1)
	c.Store(7, 2)
	if c.Resident() != 1 {
		t.Fatalf("duplicate allocation: resident = %d", c.Resident())
	}
	if v, ok := c.Lookup(7); !ok || v != 2 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
}

// TestAffinityCacheEviction: overfilling evicts (bounded capacity), and
// the age policy prefers keeping recently touched entries.
func TestAffinityCacheEviction(t *testing.T) {
	c := NewCache(64, 4)
	for i := 0; i < 1000; i++ {
		c.Store(mem.Line(i), int64(i))
	}
	if c.Resident() > 64 {
		t.Fatalf("resident %d exceeds capacity", c.Resident())
	}
	if c.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// A hammered entry must survive a burst of conflicting stores.
	c2 := NewCache(64, 4)
	c2.Store(42, 999)
	for i := 0; i < 200; i++ {
		c2.Lookup(42) // keep it young
		c2.Store(mem.Line(1000+i), int64(i))
	}
	if _, ok := c2.Lookup(42); !ok {
		t.Fatal("hot entry evicted despite age policy")
	}
}

// TestAffinityCacheMissCounting: hit/miss stats move correctly.
func TestAffinityCacheMissCounting(t *testing.T) {
	c := NewCache(64, 4)
	c.Lookup(5)
	if c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("after cold lookup: hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.Store(5, 1)
	c.Lookup(5)
	if c.Hits != 1 {
		t.Fatalf("hits=%d", c.Hits)
	}
}

// TestTable2CacheShape: the paper's §4.2 8k-entry 4-way skewed
// configuration holds every entry it was sized for.
func TestTable2CacheShape(t *testing.T) {
	c := NewCache(8192, 4)
	if c.Entries() != 8192 {
		t.Fatalf("entries = %d", c.Entries())
	}
	for i := 0; i < 8192; i++ {
		c.Store(mem.Line(i), 1)
	}
	if r := c.Resident(); r < 8192*9/10 {
		t.Fatalf("resident = %d of 8192 after 8192 distinct stores", r)
	}
}

// TestBoundedTableDegradesGracefully: a mechanism over a too-small
// affinity cache must not split (Ae forced to 0 on miss keeps the filter
// frozen) — the §4.2 mechanism that protects huge working sets — while
// the same working set splits fine with an unbounded table.
func TestBoundedTableDegradesGracefully(t *testing.T) {
	const n = 16 << 10 // 16k lines, far over a 512-entry cache
	runWith := func(table Table) uint64 {
		s := twoWay(MechConfig{WindowSize: 100, AffinityBits: 16, FilterBits: 18}, table)
		g := trace.NewCircular(n)
		for i := 0; i < 2_000_000; i++ {
			s.Ref(mem.Line(g.Next()), true)
		}
		return s.Transitions()
	}
	small := runWith(NewCache(512, 4))
	big := runWith(NewUnbounded())
	if small > big/4+16 {
		t.Fatalf("tiny affinity cache did not suppress transitions: %d vs %d", small, big)
	}
	if big == 0 {
		t.Fatal("unbounded table produced no transitions on a splittable set")
	}
}

// TestCacheShapeValidation: bad shapes panic.
func TestCacheShapeValidation(t *testing.T) {
	for _, tc := range []struct{ entries, ways int }{{0, 4}, {5, 4}, {96, 4}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", tc.entries, tc.ways)
				}
			}()
			NewCache(tc.entries, tc.ways)
		}()
	}
}
