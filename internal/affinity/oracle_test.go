package affinity

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveAffinityCache is the test oracle for Cache, written from §3.5's
// description: way w of a line sits at set cache.SkewIndex(w, line);
// a hit or a fill zeroes the touched entry's 2-bit age and ages the
// line's other candidates (saturating at 3); a fill takes the first
// empty candidate in way order, else the oldest (ties to the lower
// way). Its entries are laid out way-major, like Cache's frames, so
// the two compare entry for entry.
type naiveAffinityCache struct {
	ways, sets int
	setsLog2   uint
	st         CacheState
}

func newNaiveAffinityCache(entries, ways int) *naiveAffinityCache {
	c := NewCache(entries, ways) // only for its validated shape
	n := &naiveAffinityCache{ways: ways, sets: entries / ways, setsLog2: c.setsLog2}
	n.st = CacheState{Ways: ways, SetsLog2: c.setsLog2,
		Lines: make([]mem.Line, entries), Oe: make([]int64, entries),
		Valid: make([]bool, entries), Age: make([]uint8, entries)}
	return n
}

func (n *naiveAffinityCache) candidate(w int, line mem.Line) int {
	return w*n.sets + int(cache.SkewIndex(w, line, n.setsLog2))
}

func (n *naiveAffinityCache) touch(line mem.Line, hit int) {
	for w := 0; w < n.ways; w++ {
		if f := n.candidate(w, line); f == hit {
			n.st.Age[f] = 0
		} else if n.st.Age[f] < 3 {
			n.st.Age[f]++
		}
	}
}

func (n *naiveAffinityCache) find(line mem.Line) int {
	for w := 0; w < n.ways; w++ {
		if f := n.candidate(w, line); n.st.Valid[f] && n.st.Lines[f] == line {
			return f
		}
	}
	return -1
}

func (n *naiveAffinityCache) lookup(line mem.Line) (int64, bool) {
	f := n.find(line)
	if f < 0 {
		n.st.Misses++
		return 0, false
	}
	n.st.Hits++
	n.touch(line, f)
	return n.st.Oe[f], true
}

func (n *naiveAffinityCache) store(line mem.Line, oe int64) {
	f := n.find(line)
	if f < 0 {
		for w := 0; w < n.ways; w++ {
			c := n.candidate(w, line)
			if !n.st.Valid[c] {
				f = c
				break
			}
			if f < 0 || n.st.Age[c] > n.st.Age[f] {
				f = c
			}
		}
		if n.st.Valid[f] {
			n.st.Evictions++
		}
		n.st.Lines[f], n.st.Valid[f] = line, true
	}
	n.st.Oe[f] = oe
	n.touch(line, f)
}

// TestCacheMatchesOracle drives seeded Lookup/Store streams through
// Cache and the naive model at several shapes and compares every
// result and, periodically, every entry, age and counter.
func TestCacheMatchesOracle(t *testing.T) {
	for _, shape := range []struct{ entries, ways int }{{64, 4}, {8192, 4}, {4, 4}, {96, 3}, {256, 8}, {32, 1}} {
		for seed := uint64(1); seed <= 3; seed++ {
			c := NewCache(shape.entries, shape.ways)
			n := newNaiveAffinityCache(shape.entries, shape.ways)
			rng := trace.NewRNG(seed)
			span := uint64(4 * shape.entries)
			for i := 0; i < 50_000; i++ {
				line := mem.Line(rng.Uint64n(span))
				if rng.Uint64n(8) == 0 {
					line += mem.Line(rng.Uint64() >> 4)
				}
				if rng.Uint64n(3) == 0 {
					oe := int64(rng.Uint64n(1000)) - 500
					c.Store(line, oe)
					n.store(line, oe)
				} else {
					gv, gok := c.Lookup(line)
					wv, wok := n.lookup(line)
					if gv != wv || gok != wok {
						t.Fatalf("%+v seed %d op %d: Lookup(%#x) = (%d, %v), oracle (%d, %v)", shape, seed, i, line, gv, gok, wv, wok)
					}
				}
				if i%2500 == 0 || i == 49_999 {
					if got := c.State(); !reflect.DeepEqual(got, n.st) {
						t.Fatalf("%+v seed %d op %d: state diverges from the oracle", shape, seed, i)
					}
				}
			}
		}
	}
}
