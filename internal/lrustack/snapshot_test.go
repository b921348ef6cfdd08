package lrustack

import (
	"testing"

	"repro/internal/mem"
)

// drive feeds a deterministic mixed stream: a cyclic sweep with a
// re-reference burst so depths span hits, deep hits and first touches.
func drive(s *fenwickStack, n int) []int64 {
	depths := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		line := mem.Line(i % 97)
		if i%13 == 0 {
			line = mem.Line(i % 7)
		}
		depths = append(depths, s.Ref(line))
	}
	return depths
}

// TestStateRoundTrip: a restored stack reports the same depths as the
// original for the remainder of the stream, for both regimes.
func TestStateRoundTrip(t *testing.T) {
	for name, mk := range map[string]func() *fenwickStack{
		"unbounded": newFenwick,
		"limited":   func() *fenwickStack { return newFenwickLimited(32) },
	} {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			drive(orig, 500)
			st := orig.State()

			fresh := mk()
			if err := fresh.SetState(st); err != nil {
				t.Fatalf("SetState: %v", err)
			}
			if fresh.Live() != orig.Live() || fresh.Dropped() != orig.Dropped() {
				t.Fatalf("restored live/dropped %d/%d, want %d/%d",
					fresh.Live(), fresh.Dropped(), orig.Live(), orig.Dropped())
			}
			a := drive(orig, 300)
			b := drive(fresh, 300)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("depth diverges at ref %d: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestStateDeterministic: two identically driven stacks serialise to
// identical states.
func TestStateDeterministic(t *testing.T) {
	s1, s2 := newFenwick(), newFenwick()
	drive(s1, 400)
	drive(s2, 400)
	a, b := s1.State(), s2.State()
	if len(a.Lines) != len(b.Lines) {
		t.Fatalf("state sizes differ: %d vs %d", len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			t.Fatalf("state order diverges at %d: line %d vs %d", i, a.Lines[i], b.Lines[i])
		}
	}
}

// TestSetStateRejects: shape mismatches are errors, not corruption.
func TestSetStateRejects(t *testing.T) {
	s := newFenwickLimited(4)
	if err := s.SetState(StackState{Limit: 8}); err == nil {
		t.Fatal("limit mismatch accepted")
	}
	if err := s.SetState(StackState{Limit: 4, Lines: []mem.Line{1, 2, 3, 4, 5}}); err == nil {
		t.Fatal("over-limit state accepted")
	}
	if err := s.SetState(StackState{Limit: 4, Lines: []mem.Line{1, 1}}); err == nil {
		t.Fatal("duplicate line accepted")
	}
}
