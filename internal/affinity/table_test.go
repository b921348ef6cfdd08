package affinity

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestUnboundedLimitFIFO: eviction is strictly insertion-ordered and
// updating an existing entry does not refresh its position.
func TestUnboundedLimitFIFO(t *testing.T) {
	u := NewUnboundedLimit(3)
	u.Store(1, 10)
	u.Store(2, 20)
	u.Store(3, 30)
	if u.Len() != 3 || u.Dropped != 0 {
		t.Fatalf("after fill: len=%d dropped=%d", u.Len(), u.Dropped)
	}

	// Updating line 1 must NOT move it to the back of the queue.
	u.Store(1, 11)
	if oe, ok := u.Lookup(1); !ok || oe != 11 {
		t.Fatalf("update lost: oe=%d ok=%v", oe, ok)
	}

	u.Store(4, 40) // evicts 1 (oldest insertion, despite the update)
	if _, ok := u.Lookup(1); ok {
		t.Fatal("line 1 should have been evicted first")
	}
	u.Store(5, 50) // evicts 2
	if _, ok := u.Lookup(2); ok {
		t.Fatal("line 2 should have been evicted second")
	}
	for _, want := range []mem.Line{3, 4, 5} {
		if _, ok := u.Lookup(want); !ok {
			t.Fatalf("line %d missing", want)
		}
	}
	if u.Len() != 3 || u.Dropped != 2 || u.Limit() != 3 {
		t.Fatalf("len=%d dropped=%d limit=%d", u.Len(), u.Dropped, u.Limit())
	}
}

// TestUnboundedLimitCompaction drives enough distinct insertions through
// a small table to trigger the fifo-slice compaction (head >= 1024)
// several times, and checks the table still evicts in exact insertion
// order afterwards.
func TestUnboundedLimitCompaction(t *testing.T) {
	const limit = 16
	u := NewUnboundedLimit(limit)
	const n = 10_000
	for i := 0; i < n; i++ {
		u.Store(mem.Line(i), int64(i))
	}
	if u.Len() != limit || u.Dropped != n-limit {
		t.Fatalf("len=%d dropped=%d", u.Len(), u.Dropped)
	}
	// Survivors must be exactly the last `limit` insertions, and the next
	// eviction must hit the oldest of them.
	for i := n - limit; i < n; i++ {
		if oe, ok := u.Lookup(mem.Line(i)); !ok || oe != int64(i) {
			t.Fatalf("line %d: oe=%d ok=%v", i, oe, ok)
		}
	}
	u.Store(mem.Line(n), int64(n))
	if _, ok := u.Lookup(mem.Line(n - limit)); ok {
		t.Fatal("oldest survivor not evicted after compactions")
	}
}

// TestUnboundedNoLimit: the unlimited table never drops.
func TestUnboundedNoLimit(t *testing.T) {
	for _, u := range []*Unbounded{NewUnbounded(), NewUnboundedLimit(0), NewUnboundedLimit(-5)} {
		for i := 0; i < 5000; i++ {
			u.Store(mem.Line(i), int64(i))
		}
		if u.Len() != 5000 || u.Dropped != 0 || u.Limit() != 0 {
			t.Fatalf("len=%d dropped=%d limit=%d", u.Len(), u.Dropped, u.Limit())
		}
	}
}

// TestUnboundedLimitDeterministic: two identical random workloads
// against capped tables leave identical contents — FIFO eviction keeps
// the bounded table deterministic even though map iteration is not.
func TestUnboundedLimitDeterministic(t *testing.T) {
	run := func() (*Unbounded, uint64) {
		u := NewUnboundedLimit(64)
		rng := trace.NewRNG(9)
		for i := 0; i < 100_000; i++ {
			u.Store(mem.Line(rng.Uint64n(1000)), int64(i))
		}
		return u, u.Dropped
	}
	a, da := run()
	b, db := run()
	if da != db {
		t.Fatalf("dropped diverged: %d vs %d", da, db)
	}
	if a.Len() != b.Len() {
		t.Fatalf("len diverged: %d vs %d", a.Len(), b.Len())
	}
	a.Range(func(l mem.Line, oe int64) bool {
		if boe, ok := b.Lookup(l); !ok || boe != oe {
			t.Fatalf("line %d: %d vs (%d, %v)", l, oe, boe, ok)
		}
		return true
	})
}

// TestUnboundedMatchesMapModel cross-checks the open-addressed table
// against a plain Go map + FIFO-slice reference model over a randomized
// workload that exercises growth, in-place update, eviction and the
// backward-shift deletion path (including key 0, which is a valid line).
func TestUnboundedMatchesMapModel(t *testing.T) {
	for _, limit := range []int{0, 1, 7, 64, 300} {
		u := NewUnboundedLimit(limit)
		model := make(map[mem.Line]int64)
		var order []mem.Line
		rng := trace.NewRNG(uint64(limit) + 3)
		for i := 0; i < 50_000; i++ {
			line := mem.Line(rng.Uint64n(500))
			if rng.Uint64n(4) == 0 {
				oe, ok := u.Lookup(line)
				moe, mok := model[line]
				if ok != mok || oe != moe {
					t.Fatalf("limit=%d step=%d lookup(%d): (%d,%v) want (%d,%v)", limit, i, line, oe, ok, moe, mok)
				}
				continue
			}
			oe := int64(i)
			u.Store(line, oe)
			if _, exists := model[line]; !exists {
				if limit > 0 && len(model) >= limit {
					victim := order[0]
					order = order[1:]
					delete(model, victim)
				}
				order = append(order, line)
			}
			model[line] = oe
		}
		if u.Len() != len(model) {
			t.Fatalf("limit=%d: len %d, model %d", limit, u.Len(), len(model))
		}
		for l, moe := range model {
			if oe, ok := u.Lookup(l); !ok || oe != moe {
				t.Fatalf("limit=%d: line %d = (%d,%v), model %d", limit, l, oe, ok, moe)
			}
		}
		// The table must hold nothing beyond the model.
		u.Range(func(l mem.Line, oe int64) bool {
			if moe, ok := model[l]; !ok || moe != oe {
				t.Fatalf("limit=%d: stray entry %d=%d (model %d, present=%v)", limit, l, oe, moe, ok)
			}
			return true
		})
	}
}

// TestUnboundedStoreSteadyStateAllocs: once the live working set is
// resident, Store and Lookup never allocate — the property the
// simulator's hot path depends on. Every allocation over a window of
// Store+Lookup pairs counts, and the window cycles a working set larger
// than the limited table, so evictions recur inside it.
func TestUnboundedStoreSteadyStateAllocs(t *testing.T) {
	for _, limit := range []int{0, 256} {
		if allocs := steadyTableAllocs(NewUnboundedLimit(limit)); allocs != 0 {
			t.Errorf("limit=%d: %v allocations over %d steady-state Store+Lookup pairs", limit, allocs, steadyTableRefs)
		}
	}
}

// TestCacheSteadyStateAllocs: the bounded affinity cache of the Table 2
// machine holds the same zero, with evictions in the window.
func TestCacheSteadyStateAllocs(t *testing.T) {
	if allocs := steadyTableAllocs(NewCache(256, 4)); allocs != 0 {
		t.Errorf("%v allocations over %d steady-state Store+Lookup pairs", allocs, steadyTableRefs)
	}
}

// steadyTableRefs is the window steadyTableAllocs counts over.
const steadyTableRefs = 10_000

// steadyTableAllocs fills tab from a 500-line working set, then counts
// every allocation over steadyTableRefs Store+Lookup pairs cycling it.
func steadyTableAllocs(tab Table) float64 {
	for i := 0; i < 1024; i++ {
		tab.Store(mem.Line(i%500), int64(i))
	}
	line := mem.Line(0)
	return testing.AllocsPerRun(1, func() {
		for n := 0; n < steadyTableRefs; n++ {
			tab.Store(line, 7)
			tab.Lookup(line)
			line = (line + 1) % 500
		}
	})
}
