package affinity

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// stateful is a structure with a State/SetState pair.
type stateful[S any] interface {
	State() S
	SetState(S) error
}

// checkStateLaw drives a with the first half of lines, restores its
// state into the fresh b, and requires equal states at once and again
// after both take the second half: every field that steers behaviour
// must travel in State.
func checkStateLaw[S any, T stateful[S]](t *testing.T, a, b T, step func(T, mem.Line), lines []mem.Line) {
	t.Helper()
	half := len(lines) / 2
	for _, l := range lines[:half] {
		step(a, l)
	}
	if err := b.SetState(a.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("restored state differs from its source")
	}
	for _, l := range lines[half:] {
		step(a, l)
		step(b, l)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("states differ after %d more references", len(lines)-half)
	}
}

// mechanismWithTable is a mechanism and the table it reads, restored
// together as a checkpoint restores them.
type mechanismWithTable struct {
	m   *Mechanism
	tab *Unbounded
}

type mechanismTableState struct {
	M   MechanismState
	Tab UnboundedState
}

func (w mechanismWithTable) State() mechanismTableState {
	return mechanismTableState{M: w.m.State(), Tab: w.tab.State()}
}

func (w mechanismWithTable) SetState(st mechanismTableState) error {
	if err := w.m.SetState(st.M); err != nil {
		return err
	}
	return w.tab.SetState(st.Tab)
}

// TestStateLaw holds the state law for the mechanism, both table
// regimes and the bounded cache, over a seeded stream whose working set
// overflows every bounded table; TestSplitterStateRoundTrip holds it
// for the splitter.
func TestStateLaw(t *testing.T) {
	g := trace.Must(trace.NewPhased(3000, trace.NewCircular(2500), trace.Must(trace.NewUniform(1500, 5))))
	lines := make([]mem.Line, 40_000)
	for i := range lines {
		lines[i] = mem.Line(g.Next())
	}
	t.Run("Mechanism", func(t *testing.T) {
		cfg := Table2Config().level(0)
		build := func() mechanismWithTable {
			tab := NewUnboundedLimit(1024)
			return mechanismWithTable{m: NewMechanism(cfg, tab), tab: tab}
		}
		checkStateLaw(t, build(), build(), func(w mechanismWithTable, l mem.Line) {
			w.m.Ref(l, l%3 == 0)
		}, lines)
	})
	for _, limit := range []int{0, 1024} {
		t.Run(fmt.Sprintf("Unbounded/limit=%d", limit), func(t *testing.T) {
			step := func(u *Unbounded, l mem.Line) {
				oe, _ := u.Lookup(l)
				u.Store(l, oe+int64(l%7)-3)
			}
			checkStateLaw(t, NewUnboundedLimit(limit), NewUnboundedLimit(limit), step, lines)
		})
	}
	t.Run("Cache", func(t *testing.T) {
		step := func(c *Cache, l mem.Line) {
			if _, ok := c.Lookup(l); !ok {
				c.Store(l, int64(l%7)-3)
			}
		}
		checkStateLaw(t, NewCache(512, 4), NewCache(512, 4), step, lines)
	})
}
