package prefetch

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestStateLaw: a fresh prefetcher restored from another's State has the
// same State at once, and again after both see the same further misses.
// Twelve interleaved strided streams overflow the eight-entry table, so
// the LRU clock picks victims and every field that steers a prediction
// must travel in State for the two to stay in step.
func TestStateLaw(t *testing.T) {
	cfg := Config{Streams: 8, Degree: 2, MaxStride: 16}
	rng := trace.NewRNG(7)
	var next [12]mem.Line
	for j := range next {
		next[j] = mem.Line(j) << 20
	}
	miss := func() mem.Line {
		j := rng.Intn(len(next) + 1)
		if j == len(next) {
			return mem.Line(rng.Uint64n(1 << 30))
		}
		next[j] += mem.Line(j%3 + 1)
		return next[j]
	}
	a := New(cfg)
	for i := 0; i < 5000; i++ {
		a.OnMiss(miss())
	}
	b := New(cfg)
	if err := b.SetState(a.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("restored state differs from its source")
	}
	for i := 0; i < 5000; i++ {
		line := miss()
		if pa, pb := a.OnMiss(line), b.OnMiss(line); !slices.Equal(pa, pb) {
			t.Fatalf("miss %d after restore: prefetches %v, restored %v", i, pa, pb)
		}
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("states differ after 5000 more misses")
	}
}
