package cache

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestStateLaw: a fresh cache restored from another's State has the same
// State at once, and again after both take the same further references,
// in the plain and the skewed geometry. The seeded stream overflows the
// cache, so replacement runs on the restored LRU stamps and clock.
func TestStateLaw(t *testing.T) {
	for _, geo := range []Geometry{GeometryFor(64<<10, 6, 4, false), GeometryFor(64<<10, 6, 4, true)} {
		rng := trace.NewRNG(11)
		lines := make([]mem.Line, 40_000)
		for i := range lines {
			lines[i] = mem.Line(rng.Uint64n(1500))
		}
		step := func(c *SetAssoc, l mem.Line) {
			if h, ok := c.Lookup(l); ok {
				if l%5 == 0 {
					c.SetFlags(h, FlagModified)
				}
				return
			}
			c.Insert(l, uint8(l%2))
		}
		a, b := NewSetAssoc(geo), NewSetAssoc(geo)
		for _, l := range lines[:20_000] {
			step(a, l)
		}
		if err := b.SetState(a.State()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.State(), b.State()) {
			t.Fatalf("%+v: restored state differs from its source", geo)
		}
		for _, l := range lines[20_000:] {
			step(a, l)
			step(b, l)
		}
		if !reflect.DeepEqual(a.State(), b.State()) {
			t.Fatalf("%+v: states differ after 20000 more references", geo)
		}
	}
}
