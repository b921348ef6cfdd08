package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkSetAssocProbe times the machine's L1/L2 pattern — Probe, and
// InsertProbed on a miss — per reference, over uniform-random lines
// from working sets of a fraction or a multiple of the cache's frames:
// mostly hits, about half misses, and mostly misses on the skewed L2
// (PaperL2), and the mixed set on the 4-way L1 (PaperL1).
func BenchmarkSetAssocProbe(b *testing.B) {
	l1, l2 := GeometryFor(16<<10, 6, 4, false), GeometryFor(512<<10, 6, 4, true)
	for _, bc := range []struct {
		name string
		geo  Geometry
		ws   float64 // working set, in frames of the cache
	}{
		{"PaperL2/hit-heavy", l2, 0.5},
		{"PaperL2/mixed", l2, 2},
		{"PaperL2/miss-heavy", l2, 64},
		{"PaperL1/mixed", l1, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewSetAssoc(bc.geo)
			rng := trace.NewRNG(1)
			lines := make([]mem.Line, 1<<16)
			for i := range lines {
				lines[i] = mem.Line(rng.Uint64n(uint64(bc.ws * float64(bc.geo.Frames()))))
			}
			probe := func(line mem.Line) {
				if _, ok := c.Probe(line); !ok {
					c.InsertProbed(line, 0)
				}
			}
			for _, l := range lines { // warm: the measured loop starts full
				probe(l)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe(lines[i&(len(lines)-1)])
			}
		})
	}
}
