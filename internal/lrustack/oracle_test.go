package lrustack

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// oracle is the reference the bucketed Stack must match: the exact-depth
// Fenwick stack feeding Record, with the same cap.
type oracle struct {
	stack *fenwickStack
	prof  *Profile
}

func newOracle(thresholds []int64, limit int64) *oracle {
	return &oracle{stack: newFenwickLimited(limit), prof: NewProfile(thresholds)}
}

func (o *oracle) ref(line mem.Line) { o.prof.Record(o.stack.Ref(line)) }

// cut compares the two profiles and drop counts accumulated since the
// previous cut, then resets both, the way the interval sampler reads a
// stack at every interval boundary.
func (o *oracle) cut(t testing.TB, s *Stack, at int) {
	t.Helper()
	got := s.Profile()
	if !reflect.DeepEqual(got, o.prof) {
		t.Fatalf("ref %d: profile\n got %+v\nwant %+v", at, *got, *o.prof)
	}
	if s.Dropped() != o.stack.Dropped() || s.Live() != o.stack.Live() {
		t.Fatalf("ref %d: dropped %d live %d, oracle dropped %d live %d",
			at, s.Dropped(), s.Live(), o.stack.Dropped(), o.stack.Live())
	}
	s.ResetCounts()
	o.prof.Reset()
}

// streams are the seeded line generators of the property test, each
// over span distinct lines.
var streams = map[string]func(rng *trace.RNG, span uint64) func() mem.Line{
	"uniform": func(rng *trace.RNG, span uint64) func() mem.Line {
		return func() mem.Line { return mem.Line(rng.Uint64n(span)) }
	},
	"circular": func(rng *trace.RNG, span uint64) func() mem.Line {
		var i uint64
		return func() mem.Line { i++; return mem.Line(i % span) }
	},
	// pointer-chase walks one random cycle through the lines, jumping to
	// a random node now and then, as a linked-structure traversal does.
	"pointer-chase": func(rng *trace.RNG, span uint64) func() mem.Line {
		perm := rng.Perm(int(span))
		cur := 0
		return func() mem.Line {
			if rng.Uint64n(64) == 0 {
				cur = int(rng.Uint64n(span))
			}
			cur = perm[cur]
			return mem.Line(cur)
		}
	},
	"mixed": mixedStream,
	// spread is mixed with its lines spread over the full 64-bit range,
	// high bits set, as the line index sees real addresses.
	"spread": func(rng *trace.RNG, span uint64) func() mem.Line {
		next := mixedStream(rng, span)
		return func() mem.Line { return next()*spreadMul | 1<<63 }
	},
}

// mixedStream is a hot set, a sweep and a cold tail of first touches.
func mixedStream(rng *trace.RNG, span uint64) func() mem.Line {
	var i uint64
	return func() mem.Line {
		switch r := rng.Uint64n(10); {
		case r < 5:
			return mem.Line(rng.Uint64n(span/8 + 1))
		case r < 8:
			i++
			return mem.Line(i % span)
		default:
			return mem.Line(span + rng.Uint64n(64*span))
		}
	}
}

// capsFor returns the caps the property test runs a grid under:
// unbounded, 1, below the first threshold, exactly a middle threshold,
// one past it, and the sampler's cap.
func capsFor(th []int64) []int64 {
	mid := th[len(th)/2]
	caps := []int64{0, 1}
	if th[0] > 2 {
		caps = append(caps, th[0]-1)
	}
	return append(caps, mid, mid+1, 1<<19)
}

// TestStackMatchesOracle drives the bucketed Stack and the Fenwick
// oracle through the same stream and compares the Profile and Dropped
// after every cut, over seeded streams, caps and grids.
func TestStackMatchesOracle(t *testing.T) {
	grids := []struct {
		name string
		th   []int64
		span uint64
	}{
		{"single", []int64{48}, 120},
		{"paper6", PaperThresholds(6), 5000},
		{"paper7", PaperThresholds(7), 5000},
		{"dense", []int64{1, 2, 3, 4}, 9},
	}
	seed := uint64(1)
	for _, g := range grids {
		for _, limit := range capsFor(g.th) {
			for _, name := range []string{"uniform", "circular", "pointer-chase", "mixed", "spread"} {
				if name != "spread" { // spread replays mixed's seed over spread-out lines
					seed++
				}
				rng := trace.NewRNG(seed)
				next := streams[name](rng, g.span)
				t.Run(fmt.Sprintf("%s/cap=%d/%s", g.name, limit, name), func(t *testing.T) {
					checkStream(t, g.th, limit, next, rng, 20_000)
				})
			}
		}
	}
}

// TestStackMatchesOracleDeep fills the paper grid past its largest
// threshold, so every marker moves, at and around the threshold caps.
func TestStackMatchesOracleDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep stacks take a few seconds")
	}
	th := PaperThresholds(7)
	last := th[len(th)-1]
	for i, limit := range []int64{0, last, last + 1} {
		for j, name := range []string{"circular", "mixed"} {
			rng := trace.NewRNG(uint64(100 + 2*i + j))
			next := streams[name](rng, uint64(last+last/8))
			t.Run(fmt.Sprintf("cap=%d/%s", limit, name), func(t *testing.T) {
				checkStream(t, th, limit, next, rng, int(3*last))
			})
		}
	}
}

// checkStream runs n references through both stacks, cutting at seeded
// random points (some one reference apart), and compares at every cut.
func checkStream(t *testing.T, th []int64, limit int64, next func() mem.Line, rng *trace.RNG, n int) {
	s, o := New(th, limit), newOracle(th, limit)
	gap := uint64(n / 16)
	nextCut := 1 + int(rng.Uint64n(gap))
	for i := 1; i <= n; i++ {
		line := next()
		s.Ref(line)
		o.ref(line)
		if i == nextCut {
			o.cut(t, s, i)
			nextCut = i + 1 + int(rng.Uint64n(gap))
		}
	}
	o.cut(t, s, n)
}

// FuzzStack reads bytes as a line stream and compares the bucketed Stack
// against the oracle. The first byte picks the grid, the second the cap
// and the line mode; every later byte is a reference to one of 61 lines,
// except 0xff, which cuts. Mode 0 uses the lines 0-60 themselves, mode 1
// spreads them over the full 64-bit range with high bits set, and mode 2
// homes them all at the last slot or at slot 0 of the line index, so
// probe runs wrap past the table end and cap evictions shift entries
// back across it.
func FuzzStack(f *testing.F) {
	grids := [][]int64{{1, 2, 3, 4}, {1, 3, 8, 20}, {5}, {2, 4, 8, 16, 32, 64}}
	caps := []int64{0, 1, 2, 3, 4, 5, 8, 17}
	modes := []func(b byte) mem.Line{
		func(b byte) mem.Line { return mem.Line(b % 61) },
		func(b byte) mem.Line { return mem.Line(uint64(b%61+1)*spreadMul | 1<<63) },
		func(b byte) mem.Line {
			k := uint64(b % 61)
			if k%2 == 0 {
				return lineWithHash(^uint64(0) - k)
			}
			return lineWithHash(k)
		},
	}
	f.Add([]byte{0, 0, 1, 2, 3, 1, 2, 3, 0xff, 4, 5, 1})
	f.Add([]byte{1, 3, 10, 11, 12, 13, 14, 10, 0xff, 11, 12})
	f.Add([]byte{3, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 5, 0xff, 9})
	f.Add([]byte{3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1, 5, 0xff, 9, 60, 59})
	// Mode 2 at caps 3, 8 and 17 with more distinct lines than the cap:
	// the cap evicts while the probe run straddles the table end. In the
	// first, lines 0, 2, 4 and 6 fill the last slot and slots 0-2; the
	// cap evicts line 0, and the deletion must shift lines 2, 4 and 6
	// back across the end for the next reference to line 4 to hit.
	f.Add([]byte{0, 16 + 3, 0, 2, 4, 6, 4, 0xff, 6, 2, 8, 4})
	f.Add([]byte{1, 16 + 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 2, 0xff, 12, 13, 1, 3, 5})
	f.Add([]byte{3, 16 + 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 1, 0xff, 21, 22, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		th := grids[int(data[0])%len(grids)]
		limit := caps[int(data[1])%len(caps)]
		lineOf := modes[int(data[1])/len(caps)%len(modes)]
		s, o := New(th, limit), newOracle(th, limit)
		for i, b := range data[2:] {
			if b == 0xff {
				o.cut(t, s, i)
				continue
			}
			line := lineOf(b)
			s.Ref(line)
			o.ref(line)
		}
		o.cut(t, s, len(data)-2)
	})
}
