package affinity

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestMechanismSetStateRejectsImpossibleWindows: a checkpoint is input
// from outside the program, so SetState must refuse window shapes the
// mechanism can never reach. A window that has not wrapped fills from
// slot 0, so it is shorter than WindowSize and its head is 0; accepting
// a full-length unwrapped window would let it grow without bound, and a
// moved head would leave the FIFO out of order at the first eviction.
func TestMechanismSetStateRejectsImpossibleWindows(t *testing.T) {
	cfg := MechConfig{WindowSize: 8, AffinityBits: 16, FilterBits: 20}
	win := func(n int) []WindowEntry { return make([]WindowEntry, n) }
	for _, tc := range []struct {
		name string
		st   MechanismState
		ok   bool
	}{
		{"filling", MechanismState{Win: win(5)}, true},
		{"empty", MechanismState{}, true},
		{"wrapped", MechanismState{Win: win(8), Head: 5, Full: true}, true},
		{"unwrapped at full length", MechanismState{Win: win(8)}, false},
		{"unwrapped with moved head", MechanismState{Win: win(5), Head: 3}, false},
		{"wrapped short", MechanismState{Win: win(5), Full: true}, false},
		{"head past window", MechanismState{Win: win(8), Head: 8, Full: true}, false},
		{"negative head", MechanismState{Win: win(8), Head: -1, Full: true}, false},
		{"overlong", MechanismState{Win: win(9), Full: true}, false},
	} {
		m := NewMechanism(cfg, NewUnbounded())
		if err := m.SetState(tc.st); (err == nil) != tc.ok {
			t.Errorf("%s: SetState error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	// An accepted state keeps the window bounded.
	m := NewMechanism(cfg, NewUnbounded())
	if err := m.SetState(MechanismState{Win: win(7)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Ref(mem.Line(i), false)
	}
	if st := m.State(); len(st.Win) != cfg.WindowSize || !st.Full {
		t.Fatalf("window holds %d entries (full=%v) after 1000 refs, want %d", len(st.Win), st.Full, cfg.WindowSize)
	}
}

// TestSplitterStateRoundTrip: a splitter and its table restored from a
// mid-stream state continue exactly as the uninterrupted pair, for every
// way count, with a deferred update pending at the cut.
func TestSplitterStateRoundTrip(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		cfg := Table2Config()
		cfg.Ways = ways
		ta := NewCache(512, 4)
		a := NewSplitter(cfg, ta)
		g := trace.Must(trace.NewPhased(3000, trace.NewCircular(2500), trace.Must(trace.NewUniform(1500, 5))))
		drive := func(s *Splitter, n int, commit bool) {
			for i := 0; i < n; i++ {
				s.Ref(mem.Line(g.Next()), false)
				if commit && i%3 == 0 {
					s.CommitLastFilter()
				}
			}
		}
		drive(a, 40_000, true)
		drive(a, 1, false) // leave a deferred update pending

		tb := NewCache(512, 4)
		b := NewSplitter(cfg, tb)
		ts, err := CaptureTableState(ta)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetState(a.State()); err != nil {
			t.Fatalf("%d-way: %v", ways, err)
		}
		if err := RestoreTableState(tb, ts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.State(), b.State()) {
			t.Fatalf("%d-way: restored state differs", ways)
		}
		a.CommitLastFilter()
		b.CommitLastFilter()
		for i := 0; i < 20_000; i++ {
			e := mem.Line(g.Next())
			if sa, sb := a.Ref(e, false), b.Ref(e, false); sa != sb {
				t.Fatalf("%d-way: subsets diverge at ref %d: %d vs %d", ways, i, sa, sb)
			}
			if i%3 == 0 && a.CommitLastFilter() != b.CommitLastFilter() {
				t.Fatalf("%d-way: committed subsets diverge at ref %d", ways, i)
			}
		}
		if !reflect.DeepEqual(a.State(), b.State()) {
			t.Fatalf("%d-way: states diverge after resuming", ways)
		}

		// A state whose subset disagrees with its filters is refused.
		bad := a.State()
		bad.Prev = (bad.Prev + 1) % ways
		if err := NewSplitter(cfg, NewCache(512, 4)).SetState(bad); err == nil {
			t.Fatalf("%d-way: state with subset %d against filters designating %d restored", ways, bad.Prev, a.Subset())
		}

		// A state of another way count is refused.
		other := Table2Config()
		other.Ways = 2
		if ways == 2 {
			other.Ways = 4
		}
		if err := NewSplitter(other, NewUnbounded()).SetState(a.State()); err == nil {
			t.Fatalf("%d-way state restored into a %d-way splitter", ways, other.Ways)
		}
	}
}

// TestCacheSetStateRejectsBadAge: ages are 2-bit counters saturating at
// 3, so a checkpoint age above 3 is refused and leaves the cache as it
// was.
func TestCacheSetStateRejectsBadAge(t *testing.T) {
	src := NewCache(64, 4)
	for i := 0; i < 40; i++ {
		src.Store(mem.Line(i*5), int64(i))
	}
	for _, tc := range []struct {
		name string
		age  uint8
		ok   bool
	}{
		{"age 0", 0, true},
		{"age 3", 3, true},
		{"age 4", 4, false},
		{"age 255", 255, false},
	} {
		st := src.State()
		st.Age[7] = tc.age
		c := NewCache(64, 4)
		want := c.State()
		if tc.ok {
			want = st
		}
		if err := c.SetState(st); (err == nil) != tc.ok {
			t.Errorf("%s: SetState error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if got := c.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after SetState %+v, want %+v", tc.name, got, want)
		}
	}
}
