package affinity

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// Cache is the bounded affinity cache of §3.5/§4.2: a 4-way
// skewed-associative table of (tag, Oe, age) entries. The paper sizes it
// at 8k entries with 2-bit age-based replacement for the Table 2
// experiment. A miss simply reports !ok; the mechanism then forces
// Ae = 0 (Oe := ∆) and the subsequent Store allocates the entry.
//
// Replacement: 2-bit ages. A hit (or fresh store) zeroes the entry's age
// and increments (saturating at 3) the ages of the other candidate
// frames of that line; the victim is the candidate with the highest age
// (ties broken by way order). This is a standard age-based policy for
// skewed caches, where set-local LRU is not defined.
type Cache struct {
	ways     int
	setsLog2 uint
	lines    []mem.Line
	oe       []int64
	valid    []bool
	age      []uint8

	// skew computes a line's candidate frames; cand holds them for the
	// current call, so Lookup, Store and touch share one evaluation of
	// the skewing functions per way.
	skew cache.Skew //emlint:nosnapshot derived from the shape at construction
	cand []int32    //emlint:nosnapshot per-call scratch, rebuilt by every Lookup and Store

	// Stats. A telemetry registry exposes them as views (see
	// telemetry.Registry.View), so these are their only counts.
	Hits, Misses, Evictions uint64
}

// NewCache builds an affinity cache with the given total entry count
// (must be ways * power-of-two) and associativity.
func NewCache(entries, ways int) *Cache {
	if ways < 1 || entries < ways || entries%ways != 0 {
		//emlint:allowpanic shape is validated by migration.NewController before construction
		panic("affinity: bad cache shape")
	}
	sets := entries / ways
	log2 := uint(0)
	for 1<<log2 < sets {
		log2++
	}
	if 1<<log2 != sets {
		//emlint:allowpanic shape is validated by migration.NewController before construction
		panic("affinity: sets per way must be a power of two")
	}
	return &Cache{
		ways:     ways,
		setsLog2: log2,
		lines:    make([]mem.Line, entries),
		oe:       make([]int64, entries),
		valid:    make([]bool, entries),
		age:      make([]uint8, entries),
		skew:     cache.NewSkew(ways, log2),
		cand:     make([]int32, ways),
	}
}

// NewTable2Cache returns the paper's §4.2 configuration: 8k entries,
// 4-way skewed-associative.
func NewTable2Cache() *Cache { return NewCache(8192, 4) }

// frames returns line's candidate frame in each way, in way order.
//
//emlint:hotpath
func (c *Cache) frames(line mem.Line) []int32 {
	c.skew.Frames(line, c.cand)
	return c.cand
}

// touch applies the age policy around a hit/fill at frame hit among a
// line's candidate frames fr.
//
//emlint:hotpath
func (c *Cache) touch(fr []int32, hit int32) {
	for _, f := range fr {
		if f == hit {
			c.age[f] = 0
		} else if c.age[f] < 3 {
			c.age[f]++
		}
	}
}

// Lookup implements Table. It runs once per L1-filtered reference.
//
//emlint:hotpath
func (c *Cache) Lookup(line mem.Line) (int64, bool) {
	fr := c.frames(line)
	for _, f := range fr {
		if c.valid[f] && c.lines[f] == line {
			c.Hits++
			c.touch(fr, f)
			return c.oe[f], true
		}
	}
	c.Misses++
	return 0, false
}

// Store implements Table. It runs once per R-window pop.
//
//emlint:hotpath
func (c *Cache) Store(line mem.Line, oe int64) {
	fr := c.frames(line)
	// Update in place on hit.
	for _, f := range fr {
		if c.valid[f] && c.lines[f] == line {
			c.oe[f] = oe
			c.touch(fr, f)
			return
		}
	}
	// Allocate: invalid frame first, else oldest age.
	victim, bestAge := int32(-1), -1
	for _, f := range fr {
		if !c.valid[f] {
			victim = f
			break
		}
		if int(c.age[f]) > bestAge {
			victim, bestAge = f, int(c.age[f])
		}
	}
	if c.valid[victim] {
		c.Evictions++
	}
	c.lines[victim] = line
	c.oe[victim] = oe
	c.valid[victim] = true
	c.touch(fr, victim)
}

// Entries returns the total entry count.
func (c *Cache) Entries() int { return len(c.lines) }

// Resident returns the number of valid entries.
func (c *Cache) Resident() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

var _ Table = (*Cache)(nil)
