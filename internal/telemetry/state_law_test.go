package telemetry

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestStateLaw: a freshly registered registry restored from another's
// Snapshot has the same Snapshot at once, and again after both record
// the same further events.
func TestStateLaw(t *testing.T) {
	build := func() (*Registry, func(v uint64)) {
		r := NewRegistry()
		c := [3]Counter{r.MustCounter("a"), r.MustCounter("b"), r.MustCounter("c")}
		h := [2]Histogram{r.MustHistogram("h0"), r.MustHistogram("h1")}
		return r, func(v uint64) {
			c[v%3].Add(v & 0xff)
			h[v%2].Observe(v >> (v % 60))
		}
	}
	rng := trace.NewRNG(3)
	vs := make([]uint64, 20_000)
	for i := range vs {
		vs[i] = rng.Uint64()
	}
	a, stepA := build()
	b, stepB := build()
	for _, v := range vs[:10_000] {
		stepA(v)
	}
	if err := b.SetState(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored snapshot differs from its source")
	}
	for _, v := range vs[10_000:] {
		stepA(v)
		stepB(v)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("snapshots differ after 10000 more events")
	}
}
