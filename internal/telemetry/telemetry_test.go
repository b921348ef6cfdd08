package telemetry

import (
	"reflect"
	"testing"
)

func TestCounterRegistrationAndValues(t *testing.T) {
	r := NewRegistry()
	a := r.MustCounter("a")
	b := r.MustCounter("b")
	a.Add(3)
	a.Inc()
	b.Add(10)
	if got := a.Value(); got != 4 {
		t.Fatalf("a = %d, want 4", got)
	}
	if got := b.Value(); got != 10 {
		t.Fatalf("b = %d, want 10", got)
	}
	// Idempotent registration returns the same slot.
	a2 := r.MustCounter("a")
	a2.Inc()
	if got := a.Value(); got != 5 {
		t.Fatalf("re-registered handle did not alias: a = %d, want 5", got)
	}
	if !reflect.DeepEqual(r.CounterNames(), []string{"a", "b"}) {
		t.Fatalf("names = %v", r.CounterNames())
	}
}

func TestCounterZeroHandleIsNoOp(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 || c.Enabled() {
		t.Fatal("zero Counter must read 0 and report disabled")
	}
	var h Histogram
	h.Observe(42)
	if h.Buckets() != nil || h.Enabled() {
		t.Fatal("zero Histogram must be inert")
	}
}

func TestCounterBudgetExhausted(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < MaxCounters; i++ {
		r.MustCounter(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	if _, err := r.Counter("one-too-many"); err == nil {
		t.Fatal("expected budget-exhausted error")
	}
}

// TestCounterHandleStability: registering more counters must not move
// earlier slots (handles are pointers into a preallocated array).
func TestCounterHandleStability(t *testing.T) {
	r := NewRegistry()
	first := r.MustCounter("first")
	first.Add(7)
	for i := 0; i < MaxCounters-1; i++ {
		r.MustCounter(string(rune('a'+i%26)) + string(rune('0'+i/26)) + "x")
	}
	first.Add(1)
	if got, _ := r.Snapshot().Counter("first"); got != 8 {
		t.Fatalf("slot moved under the handle: first = %d, want 8", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("gap")
	h.Observe(0)       // bucket 0
	h.Observe(1)       // bucket 1
	h.Observe(2)       // bucket 2
	h.Observe(3)       // bucket 2
	h.Observe(4)       // bucket 3
	h.Observe(1 << 40) // bucket 41
	b := h.Buckets()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 41: 1}
	for i, v := range b {
		if v != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, v, want[i])
		}
	}
}

func TestSnapshotAndSetState(t *testing.T) {
	r := NewRegistry()
	a := r.MustCounter("a")
	h := r.MustHistogram("h")
	a.Add(5)
	h.Observe(9)
	snap := r.Snapshot()

	a.Add(100)
	h.Observe(1)
	if err := r.SetState(snap); err != nil {
		t.Fatal(err)
	}
	if a.Value() != 5 {
		t.Fatalf("restored a = %d, want 5", a.Value())
	}
	if got := h.Buckets()[4]; got != 1 {
		t.Fatalf("restored bucket 4 = %d, want 1", got)
	}
	if got := h.Buckets()[1]; got != 0 {
		t.Fatalf("restored bucket 1 = %d, want 0", got)
	}

	// A zero snapshot resets everything.
	if err := r.SetState(Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if a.Value() != 0 {
		t.Fatalf("reset a = %d, want 0", a.Value())
	}

	// Unknown names are rejected.
	if err := r.SetState(Snapshot{Counters: []CounterValue{{Name: "nope", Value: 1}}}); err == nil {
		t.Fatal("unknown counter accepted")
	}
	if err := r.SetState(Snapshot{Hists: []HistogramValue{{Name: "nope"}}}); err == nil {
		t.Fatal("unknown histogram accepted")
	}
}

// TestCounterView: a view reads and writes its owner's field in place,
// keeps its registration slot in snapshots and timelines, and is left
// alone by SetState (its owner restores it); re-registering a view name
// on other storage is an error.
func TestCounterView(t *testing.T) {
	var field uint64 = 3
	r := NewRegistry()
	own := r.MustCounter("own")
	v := r.MustView("view", &field)
	if again := r.MustView("view", &field); again != v {
		t.Fatal("re-registering a view on the same field returned another handle")
	}
	if c, err := r.Counter("view"); err != nil || c != v {
		t.Fatalf("Counter on a view name = %v, %v; want the view", c, err)
	}
	var other uint64
	if _, err := r.View("view", &other); err == nil {
		t.Fatal("view re-registered on other storage")
	}
	if _, err := r.View("own", &other); err == nil {
		t.Fatal("owned counter re-registered as a view")
	}

	field += 4 // the owner's one increment
	own.Add(2)
	v.Add(1) // a handle writes through to the field
	if field != 8 || v.Value() != 8 {
		t.Fatalf("field = %d, view reads %d; want 8", field, v.Value())
	}
	tl, err := NewTimeline(r, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl.MaybeSample(1)
	want := Snapshot{Counters: []CounterValue{{"own", 2}, {"view", 8}}}
	if snap := r.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
	if row := tl.Rows("m")[0]; row.Counters["view"] != 8 {
		t.Fatalf("timeline row = %+v", row)
	}

	if err := r.SetState(Snapshot{Counters: []CounterValue{{"own", 9}, {"view", 100}}}); err != nil {
		t.Fatal(err)
	}
	if own.Value() != 9 || field != 8 {
		t.Fatalf("after SetState: own = %d, field = %d; want 9, 8", own.Value(), field)
	}
	if err := r.SetState(Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if own.Value() != 0 || field != 8 {
		t.Fatalf("after reset: own = %d, field = %d; want 0, 8", own.Value(), field)
	}
}

func TestMerge(t *testing.T) {
	mk := func(av, bv uint64, buckets []uint64) Snapshot {
		return Snapshot{
			Counters: []CounterValue{{Name: "a", Value: av}, {Name: "b", Value: bv}},
			Hists:    []HistogramValue{{Name: "h", Buckets: buckets}},
		}
	}
	var dst Snapshot
	Merge(&dst, mk(1, 2, []uint64{0, 1}))
	Merge(&dst, mk(10, 20, []uint64{5, 0, 7}))
	if v, _ := dst.Counter("a"); v != 11 {
		t.Fatalf("merged a = %d", v)
	}
	if v, _ := dst.Counter("b"); v != 22 {
		t.Fatalf("merged b = %d", v)
	}
	if want := []uint64{5, 1, 7}; !reflect.DeepEqual(dst.Hists[0].Buckets, want) {
		t.Fatalf("merged buckets = %v, want %v", dst.Hists[0].Buckets, want)
	}
	// Names absent from dst are appended.
	Merge(&dst, Snapshot{Counters: []CounterValue{{Name: "c", Value: 3}}})
	if v, ok := dst.Counter("c"); !ok || v != 3 {
		t.Fatalf("appended c = %d, %v", v, ok)
	}
	if _, ok := dst.Counter("missing"); ok {
		t.Fatal("phantom counter")
	}
}

// TestMergeOrderIndependence: counter sums commute, so merging job
// snapshots in any order yields equal values — the reason per-job
// metric merging is deterministic for every worker count.
func TestMergeOrderIndependence(t *testing.T) {
	snaps := []Snapshot{
		{Counters: []CounterValue{{Name: "x", Value: 1}}},
		{Counters: []CounterValue{{Name: "x", Value: 2}, {Name: "y", Value: 5}}},
		{Counters: []CounterValue{{Name: "x", Value: 4}}},
	}
	var fwd, rev Snapshot
	for _, s := range snaps {
		Merge(&fwd, s)
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		Merge(&rev, snaps[i])
	}
	for _, name := range []string{"x", "y"} {
		fv, _ := fwd.Counter(name)
		rv, _ := rev.Counter(name)
		if fv != rv {
			t.Fatalf("%s: forward %d != reverse %d", name, fv, rv)
		}
	}
}
