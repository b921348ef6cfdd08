package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestOwnersMatchMap drives the owner index and a Go map through the
// same seeded put/take stream — clustered lines so probe runs collide
// and wrap, enough live lines to grow the table several times, and
// takes that empty it again — and requires identical answers.
func TestOwnersMatchMap(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		o := newOwners(cores)
		want := map[mem.Line]int{}
		rng := trace.NewRNG(uint64(cores))
		for i := 0; i < 200_000; i++ {
			line := mem.Line(rng.Uint64n(6000))
			if rng.Uint64n(16) == 0 {
				line = mem.Line(rng.Uint64() >> 6) // the widest line a 64-byte line shift yields
			}
			if rng.Uint64n(2) == 0 {
				core := int(rng.Uint64n(uint64(cores)))
				prev, had := o.put(line, core)
				wprev, whad := want[line]
				if had != whad || (had && prev != wprev) {
					t.Fatalf("put %#x: (%d, %v), want (%d, %v)", line, prev, had, wprev, whad)
				}
				want[line] = core
			} else {
				core, ok := o.take(line)
				wcore, wok := want[line]
				if ok != wok || (ok && core != wcore) {
					t.Fatalf("take %#x: (%d, %v), want (%d, %v)", line, core, ok, wcore, wok)
				}
				delete(want, line)
			}
			if o.n != len(want) {
				t.Fatalf("op %d: %d entries, want %d", i, o.n, len(want))
			}
		}
		for line, c := range want {
			if i, ok := o.find(line); !ok || o.owner(i) != c {
				t.Fatalf("cores %d: line %#x lost (present %v)", cores, line, ok)
			}
		}
		if len(o.slots) < 2*len(want) {
			t.Fatalf("cores %d: %d slots for %d entries: the table did not grow", cores, len(o.slots), len(want))
		}
	}
}
