package lrustack

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// fibInverse is the inverse of the index's Fibonacci multiplier modulo
// 2^64, so lineWithHash can place a line at a chosen home slot. Newton's
// iteration doubles the correct low bits of an odd number's inverse at
// every step, starting from 3 correct bits.
var fibInverse = func() uint64 {
	const phi = 0x9e3779b97f4a7c15
	inv := uint64(phi)
	for i := 0; i < 5; i++ {
		inv *= 2 - phi*inv
	}
	return inv
}()

// lineWithHash returns the line whose Fibonacci hash is h: its home in a
// table of 2^k slots is the top k bits of h, at every table size.
func lineWithHash(h uint64) mem.Line { return mem.Line(h * fibInverse) }

// spreadMul is an odd multiplier that spreads small integers over the
// full 64-bit range, unrelated to the index's Fibonacci multiplier.
const spreadMul = 0xd6e8feb86659fd93

// indexPools are the line generators of the index test.
var indexPools = map[string]func(rng *trace.RNG) mem.Line{
	// same-home lines all share the last slot at every table size, so
	// each probe run is long and wraps past the table end.
	"same-home": func(rng *trace.RNG) mem.Line {
		return lineWithHash(^uint64(0) - rng.Uint64n(600))
	},
	// both-ends lines share the last slot or slot 0, so the run that
	// wraps past the end merges with the run that starts the table, and
	// deletions shift entries back across the end.
	"both-ends": func(rng *trace.RNG) mem.Line {
		k := rng.Uint64n(800)
		if k%2 == 0 {
			return lineWithHash(^uint64(0) - k<<40)
		}
		return lineWithHash(k << 40)
	},
	// spread lines cover the full 64-bit range, high bits set, with
	// enough distinct lines to grow the table several times.
	"spread": func(rng *trace.RNG) mem.Line {
		if rng.Uint64n(4) == 0 {
			return mem.Line(1<<63 | rng.Uint64n(6000))
		}
		return mem.Line(rng.Uint64n(6000) * spreadMul)
	},
}

// checkIndex asserts the table's structural invariant: every entry is
// reachable from its home slot without crossing an empty slot, and the
// entry count matches.
func checkIndex(t *testing.T, step int, ix *lineIndex, nodes []node) {
	t.Helper()
	n := 0
	for i, v := range ix.slots {
		if v == 0 {
			continue
		}
		n++
		for j := ix.home(nodes[v-1].line); j != uint64(i); j = (j + 1) & ix.mask {
			if ix.slots[j] == 0 {
				t.Fatalf("step %d: slot %d (line %#x) unreachable: empty slot %d on its probe run",
					step, i, nodes[v-1].line, j)
			}
		}
	}
	if n != ix.n {
		t.Fatalf("step %d: %d occupied slots, count says %d", step, n, ix.n)
	}
}

// TestLineIndexMatchesMap drives the line index and a Go map through the
// same seeded insert/find/remove stream — lines that share a home slot,
// runs that wrap past the table end, enough lines to grow the table
// several times, and phases that drain it again — and requires
// identical answers and an intact table throughout.
func TestLineIndexMatchesMap(t *testing.T) {
	for name, pool := range indexPools {
		t.Run(name, func(t *testing.T) {
			rng := trace.NewRNG(uint64(len(name)))
			var ix lineIndex
			ix.alloc(indexInitialLog2)
			var nodes []node
			var free []int32
			want := map[mem.Line]int32{}
			wrapped, grew := false, false
			const steps = 60_000
			for i := 0; i < steps; i++ {
				// Insert-heavy, then remove-heavy, then even.
				insertPct := uint64([]int{90, 10, 50}[3*i/steps])
				line := pool(rng)
				slot, x := ix.find(nodes, line)
				wx, ok := want[line]
				if (x != none) != ok || (ok && x != wx) {
					t.Fatalf("step %d: find %#x = node %d, want %d (present %v)", i, line, x, wx, ok)
				}
				switch {
				case !ok && rng.Uint64n(100) < insertPct:
					if len(free) > 0 {
						x, free = free[len(free)-1], free[:len(free)-1]
					} else {
						x = int32(len(nodes))
						nodes = append(nodes, node{})
					}
					nodes[x] = node{line: line}
					ix.insert(slot, x)
					want[line] = x
					wrapped = wrapped || slot < ix.home(line)
					if ix.full() {
						ix.grow(nodes)
						grew = true
					}
				case ok && rng.Uint64n(100) >= insertPct:
					ix.remove(nodes, x)
					free = append(free, x)
					delete(want, line)
				}
				if ix.n != len(want) {
					t.Fatalf("step %d: %d entries, want %d", i, ix.n, len(want))
				}
				if i%97 == 0 {
					checkIndex(t, i, &ix, nodes)
				}
			}
			checkIndex(t, steps, &ix, nodes)
			for line, wx := range want {
				if _, x := ix.find(nodes, line); x != wx {
					t.Fatalf("line %#x: node %d, want %d", line, x, wx)
				}
			}
			if !grew {
				t.Fatal("the stream never grew the table")
			}
			if name != "spread" && !wrapped {
				t.Fatal("the stream never wrapped a probe run past the table end")
			}
		})
	}
}

// TestStackCapAcrossTableEnd evicts lines through the cap while their
// probe runs straddle the table end, and checks the stack against the
// oracle at every cut.
func TestStackCapAcrossTableEnd(t *testing.T) {
	for _, limit := range []int64{1, 3, 17, 100, 150} {
		t.Run(fmt.Sprintf("cap=%d", limit), func(t *testing.T) {
			rng := trace.NewRNG(uint64(limit))
			next := func() mem.Line { return indexPools["both-ends"](rng) }
			checkStream(t, []int64{1, 2, 8, 64}, limit, next, rng, 20_000)
		})
	}
}
