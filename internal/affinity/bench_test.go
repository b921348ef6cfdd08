package affinity

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkAffinityCache times one Lookup and one Store per iteration on
// Table 2's 8k-entry 4-way affinity cache, over uniform-random lines
// from a working set of three times its entries (about a third hit).
func BenchmarkAffinityCache(b *testing.B) {
	const entries = 8192
	c := NewCache(entries, 4)
	rng := trace.NewRNG(1)
	lines := make([]mem.Line, 1<<16)
	for i := range lines {
		lines[i] = mem.Line(rng.Uint64n(3 * entries))
	}
	for i, l := range lines { // warm: the measured loop starts full
		c.Store(l, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i&(len(lines)-1)]
		oe, _ := c.Lookup(l)
		c.Store(lines[(i+7)&(len(lines)-1)], oe+1)
	}
}
