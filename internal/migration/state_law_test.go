package migration

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestStateLaw: for every registered policy, a fresh policy restored
// from another's PolicyState has the same PolicyState at once, and again
// after both see the same further requests and L2 misses. The stream
// mixes phases so the controllers migrate and, over the ring, defer.
func TestStateLaw(t *testing.T) {
	g := trace.Must(trace.NewPhased(30_000, trace.NewCircular(24<<10), trace.Must(trace.NewUniform(6000, 5))))
	lines := make([]mem.Line, 300_000)
	for i := range lines {
		lines[i] = mem.Line(g.Next())
	}
	ring, err := NewTopology("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			build := func() Policy {
				p, err := NewPolicy(name, Table2Config(), ring)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			state := func(p Policy) PolicyState {
				st, err := p.PolicyState()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			step := func(p Policy, l mem.Line) {
				p.OnRequest(l)
				if l%4 != 0 {
					p.OnL2Miss(l%8 == 1)
				}
			}
			a, b := build(), build()
			cut := len(lines) / 2
			for _, l := range lines[:cut] {
				step(a, l)
			}
			// Cut numa while its hysteresis is in flight, so the pending
			// move must travel in the state too.
			if c, ok := a.(*Controller); ok && name == PolicyNuma {
				for ; c.pending == 0 && cut < len(lines); cut++ {
					step(a, lines[cut])
				}
				if c.pending == 0 {
					t.Fatal("the stream never left a move pending")
				}
			}
			if err := b.SetPolicyState(state(a)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(state(a), state(b)) {
				t.Fatal("restored state differs from its source")
			}
			for _, l := range lines[cut:] {
				step(a, l)
				step(b, l)
			}
			if !reflect.DeepEqual(state(a), state(b)) {
				t.Fatalf("states differ after %d more references", len(lines)-cut)
			}
			if c := state(a).Controller; c != nil && c.Migrations == 0 {
				t.Fatal("the stream never migrated, so the law held vacuously")
			}
		})
	}
}
