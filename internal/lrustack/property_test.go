package lrustack

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveModel is the O(n) reference model for the full Stack API,
// including snapshot/restore: a move-to-front list (most recent first)
// with tail-drop past the cap. Depth of a reference is its index in the
// list; State mirrors StackState (LRU first).
type naiveModel struct {
	order   []mem.Line
	cap     int64
	dropped uint64
}

func (n *naiveModel) ref(line mem.Line) int64 {
	for i, l := range n.order {
		if l == line {
			copy(n.order[1:i+1], n.order[:i])
			n.order[0] = line
			return int64(i)
		}
	}
	n.order = append([]mem.Line{line}, n.order...)
	if n.cap > 0 && int64(len(n.order)) > n.cap {
		n.order = n.order[:n.cap]
		n.dropped++
	}
	return Infinite
}

func (n *naiveModel) state() StackState {
	lines := make([]mem.Line, len(n.order))
	for i, l := range n.order {
		lines[len(lines)-1-i] = l // model is MRU-first, StackState is LRU-first
	}
	return StackState{Lines: lines, Limit: n.cap, Dropped: n.dropped}
}

func (n *naiveModel) setState(st StackState) {
	n.order = make([]mem.Line, len(st.Lines))
	for i, l := range st.Lines {
		n.order[len(n.order)-1-i] = l
	}
	n.dropped = st.Dropped
}

// checkAgainstModel asserts every externally observable property of the
// stack matches the model: live count, drop accounting, and the full
// recency order via State.
func checkAgainstModel(t *testing.T, step int, op string, s *fenwickStack, n *naiveModel) {
	t.Helper()
	if s.Live() != int64(len(n.order)) {
		t.Fatalf("step %d (%s): live = %d, model %d", step, op, s.Live(), len(n.order))
	}
	if s.Dropped() != n.dropped {
		t.Fatalf("step %d (%s): dropped = %d, model %d", step, op, s.Dropped(), n.dropped)
	}
	got, want := s.State(), n.state()
	if len(got.Lines) != len(want.Lines) {
		t.Fatalf("step %d (%s): state holds %d lines, model %d", step, op, len(got.Lines), len(want.Lines))
	}
	for i := range got.Lines {
		if got.Lines[i] != want.Lines[i] {
			t.Fatalf("step %d (%s): recency order diverged at %d:\n stack %v\n model %v",
				step, op, i, got.Lines, want.Lines)
		}
	}
}

// TestStackPropertyOpSequences drives Stack and the naive model through
// seeded random operation sequences — references, snapshots, restores
// (both in-place and into a fresh stack) — and demands identical depth
// results, recency order, live counts and drop accounting at every
// step. Covers the unbounded stack and caps that force eviction plus
// compaction churn.
func TestStackPropertyOpSequences(t *testing.T) {
	cases := []struct {
		limit    int64
		alphabet uint64
		seed     uint64
	}{
		{0, 40, 101},    // unbounded, small alphabet → heavy compaction
		{0, 5000, 102},  // unbounded, mostly first touches
		{8, 40, 103},    // tiny cap → constant eviction
		{64, 200, 104},  // cap between alphabet extremes
		{300, 200, 105}, // cap never reached: must behave as unbounded
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("limit=%d/alphabet=%d", tc.limit, tc.alphabet), func(t *testing.T) {
			rng := trace.NewRNG(tc.seed)
			s := newFenwickLimited(tc.limit)
			n := &naiveModel{cap: tc.limit}
			var stash []StackState // snapshots taken mid-run, restored later

			const steps = 6000
			for i := 0; i < steps; i++ {
				switch op := rng.Uint64n(100); {
				case op < 90: // reference
					line := mem.Line(rng.Uint64n(tc.alphabet))
					got, want := s.Ref(line), n.ref(line)
					if got != want {
						t.Fatalf("step %d: Ref(%d) depth %d, model %d", i, line, got, want)
					}
					if i%97 == 0 {
						checkAgainstModel(t, i, "ref", s, n)
					}
				case op < 95: // snapshot: stash it and verify it matches the model's
					st := s.State()
					want := n.state()
					if len(st.Lines) != len(want.Lines) || st.Dropped != want.Dropped || st.Limit != tc.limit {
						t.Fatalf("step %d: snapshot %+v, model %+v", i, st, want)
					}
					stash = append(stash, st)
				case op < 98 && len(stash) > 0: // restore in place
					st := stash[rng.Uint64n(uint64(len(stash)))]
					if err := s.SetState(st); err != nil {
						t.Fatalf("step %d: SetState: %v", i, err)
					}
					n.setState(st)
					checkAgainstModel(t, i, "restore", s, n)
				case len(stash) > 0: // restore into a fresh stack and continue on it
					st := stash[rng.Uint64n(uint64(len(stash)))]
					fresh := newFenwickLimited(tc.limit)
					if err := fresh.SetState(st); err != nil {
						t.Fatalf("step %d: fresh SetState: %v", i, err)
					}
					s = fresh
					n.setState(st)
					checkAgainstModel(t, i, "fresh-restore", s, n)
				}
			}
			checkAgainstModel(t, steps, "final", s, n)
			if tc.limit > 0 && s.Live() > tc.limit {
				t.Fatalf("live %d exceeds cap %d", s.Live(), tc.limit)
			}
			if tc.limit == 8 && s.Dropped() == 0 {
				t.Fatal("tiny cap produced no drops; op mix is not exercising eviction")
			}
		})
	}
}

// TestStackPropertyDepthProfile replays the same seeded op sequence
// twice — once straight through, once snapshotting halfway and
// finishing on a restored fresh stack — and demands the depth profile
// of the second half be identical. Snapshot/restore must be invisible
// to every subsequent depth query.
func TestStackPropertyDepthProfile(t *testing.T) {
	for _, limit := range []int64{0, 32} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			const half, total = 3000, 6000
			mkLines := func() []mem.Line {
				rng := trace.NewRNG(7)
				lines := make([]mem.Line, total)
				for i := range lines {
					lines[i] = mem.Line(rng.Uint64n(120))
				}
				return lines
			}
			lines := mkLines()

			ref := newFenwickLimited(limit)
			var refDepths []int64
			for _, l := range lines {
				refDepths = append(refDepths, ref.Ref(l))
			}

			s := newFenwickLimited(limit)
			for _, l := range lines[:half] {
				s.Ref(l)
			}
			st := s.State()
			resumed := newFenwickLimited(limit)
			if err := resumed.SetState(st); err != nil {
				t.Fatal(err)
			}
			for i, l := range lines[half:] {
				if got := resumed.Ref(l); got != refDepths[half+i] {
					t.Fatalf("ref %d after restore: depth %d, want %d", half+i, got, refDepths[half+i])
				}
			}
			if resumed.Dropped() != ref.Dropped() || resumed.Live() != ref.Live() {
				t.Fatalf("after restore: live %d dropped %d, reference live %d dropped %d",
					resumed.Live(), resumed.Dropped(), ref.Live(), ref.Dropped())
			}
		})
	}
}
