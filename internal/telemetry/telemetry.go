// Package telemetry is the simulator's observability layer: a registry
// of named event counters and power-of-two-bucket histograms whose
// hot-path update is a plain memory store, an interval timeline that
// samples every metric into a preallocated ring at the run engine's
// boundary events (timeline.go), and deterministic JSONL/merge
// plumbing for the parallel experiment engine.
//
// Design constraints (DESIGN.md "Observability"):
//
//   - The per-reference cost of an enabled metric is one pointer
//     increment — no allocation, no interface call, no lock. Counter
//     and Histogram are value-type handles into fixed slots owned by a
//     Registry; the zero handle is a no-op, so probes can be wired
//     optionally without nil checks at every call site.
//   - A count that already lives in a model's own field (a Stats
//     counter, a controller or affinity-cache tally) is registered as
//     a view onto that field (View) instead of being mirrored: the
//     model increments it once and the registry reads it in place.
//   - A Registry is single-goroutine, like the Machine that owns it.
//     Every parallel job owns its own Registry; cross-job visibility
//     goes through Snapshot values (copies), merged deterministically
//     (Merge) or published to the race-safe telhttp.Live.
//   - All serialised forms (Snapshot, timeline rows) iterate metrics in
//     registration order and encode maps through encoding/json (which
//     sorts keys), so identical runs produce identical bytes — the
//     property the serial-vs-parallel golden tests pin.
package telemetry

import (
	"fmt"
	"math/bits"
)

// MaxCounters is the fixed counter-slot budget of one Registry. Slots
// are preallocated so Counter handles (pointers into the slot array)
// stay valid for the registry's lifetime; registration beyond the
// budget fails.
const MaxCounters = 256

// HistBuckets is the number of buckets in a Histogram: bucket 0 holds
// observations of 0 and bucket i>0 holds observations in [2^(i-1), 2^i)
// — i.e. the bucket index is bits.Len64 of the observed value.
const HistBuckets = 65

// Registry names and stores a set of counters and histograms. It is not
// safe for concurrent use; see the package comment for the ownership
// model.
type Registry struct {
	names []string
	// vals[i] is counter i's storage: own[i] for a registry-owned
	// counter, the owner's field for a view.
	vals []*uint64
	own  []uint64 // len = registered counters, cap = MaxCounters (never reallocated)

	histNames []string
	hists     []*[HistBuckets]uint64
}

// NewRegistry returns an empty registry with the full slot budget
// preallocated.
func NewRegistry() *Registry {
	return &Registry{own: make([]uint64, 0, MaxCounters)}
}

// Counter is a handle to one fixed counter slot. The zero Counter is a
// valid no-op probe: Add and Inc do nothing, Value reads 0.
type Counter struct {
	p *uint64
}

// Add adds n to the counter. It is the hot-path operation: one pointer
// increment, allocation-free.
func (c Counter) Add(n uint64) {
	if c.p != nil {
		*c.p += n
	}
}

// Inc adds 1 to the counter.
func (c Counter) Inc() {
	if c.p != nil {
		*c.p++
	}
}

// Value returns the counter's current value (0 for the zero handle).
func (c Counter) Value() uint64 {
	if c.p == nil {
		return 0
	}
	return *c.p
}

// Enabled reports whether the handle is wired to a registry slot.
func (c Counter) Enabled() bool { return c.p != nil }

// Counter registers (or retrieves) the named counter and returns its
// handle. Registration is idempotent: asking for an existing name
// returns the same slot. It fails only when the MaxCounters budget is
// exhausted.
func (r *Registry) Counter(name string) (Counter, error) {
	if i := r.index(name); i >= 0 {
		return Counter{p: r.vals[i]}, nil
	}
	return r.register(name, nil)
}

// View registers the named counter as a view onto *p, a count its
// owner already keeps (and checkpoints) in its own field. The registry
// reads the field in place — the owner's one increment is the metric's
// only update — and SetState leaves it alone: the owner's own state
// restore sets it. Re-registering a name is idempotent for the same
// field and an error for any other.
func (r *Registry) View(name string, p *uint64) (Counter, error) {
	if i := r.index(name); i >= 0 {
		if r.vals[i] != p {
			return Counter{}, fmt.Errorf("telemetry: counter %q is already registered on other storage", name)
		}
		return Counter{p: p}, nil
	}
	return r.register(name, p)
}

// MustView is View panicking on error, for constant metric sets.
func (r *Registry) MustView(name string, p *uint64) Counter {
	c, err := r.View(name, p)
	if err != nil {
		panic(err)
	}
	return c
}

// index returns the slot of the named counter, or -1.
func (r *Registry) index(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

// register claims the next counter slot for name, stored at p (nil =
// the registry's own slot). A view claims an own slot too, left unused,
// which keeps own and vals index-aligned.
func (r *Registry) register(name string, p *uint64) (Counter, error) {
	if len(r.own) == cap(r.own) {
		return Counter{}, fmt.Errorf("telemetry: counter budget of %d slots exhausted registering %q", cap(r.own), name)
	}
	r.names = append(r.names, name)
	r.own = append(r.own, 0)
	if p == nil {
		p = &r.own[len(r.own)-1]
	}
	r.vals = append(r.vals, p)
	return Counter{p: p}, nil
}

// isView reports whether counter i reads an owner's field.
func (r *Registry) isView(i int) bool { return r.vals[i] != &r.own[i] }

// MustCounter is Counter panicking on error, for registries whose
// metric set is a compile-time constant (the machine model's).
func (r *Registry) MustCounter(name string) Counter {
	c, err := r.Counter(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Histogram is a handle to one power-of-two-bucket histogram. The zero
// Histogram is a valid no-op probe.
type Histogram struct {
	b *[HistBuckets]uint64
}

// Observe records one value. Hot-path: a bits.Len64 and one array
// store, allocation-free.
func (h Histogram) Observe(v uint64) {
	if h.b != nil {
		h.b[bits.Len64(v)]++
	}
}

// Enabled reports whether the handle is wired to a registry.
func (h Histogram) Enabled() bool { return h.b != nil }

// Buckets returns a copy of the bucket counts (nil for the zero handle).
func (h Histogram) Buckets() []uint64 {
	if h.b == nil {
		return nil
	}
	out := make([]uint64, HistBuckets)
	copy(out, h.b[:])
	return out
}

// Histogram registers (or retrieves) the named histogram.
func (r *Registry) Histogram(name string) (Histogram, error) {
	for i, n := range r.histNames {
		if n == name {
			return Histogram{b: r.hists[i]}, nil
		}
	}
	b := new([HistBuckets]uint64)
	r.histNames = append(r.histNames, name)
	r.hists = append(r.hists, b)
	return Histogram{b: b}, nil
}

// MustHistogram is Histogram panicking on error.
func (r *Registry) MustHistogram(name string) Histogram {
	h, err := r.Histogram(name)
	if err != nil {
		panic(err)
	}
	return h
}

// CounterNames returns the registered counter names in registration
// order (a copy).
func (r *Registry) CounterNames() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// HistogramNames returns the registered histogram names in registration
// order (a copy).
func (r *Registry) HistogramNames() []string {
	out := make([]string, len(r.histNames))
	copy(out, r.histNames)
	return out
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value uint64
}

// HistogramValue is one named histogram reading. Buckets holds the
// HistBuckets counts with trailing zeros trimmed (bucket i counts
// observations v with bits.Len64(v) == i).
type HistogramValue struct {
	Name    string
	Buckets []uint64
}

// Snapshot is a point-in-time copy of every metric in a registry, in
// registration order. It doubles as the registry's serialisable state
// for machine checkpoints (SetState) and as the unit of cross-goroutine
// publication (telhttp.Live) and per-job merging (Merge).
type Snapshot struct {
	Counters []CounterValue
	Hists    []HistogramValue
}

// Snapshot copies the current metric values. It allocates and is meant
// for cold paths (interval boundaries, end of run).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if len(r.names) > 0 {
		s.Counters = make([]CounterValue, len(r.names))
		for i, n := range r.names {
			s.Counters[i] = CounterValue{Name: n, Value: *r.vals[i]}
		}
	}
	if len(r.histNames) > 0 {
		s.Hists = make([]HistogramValue, len(r.histNames))
		for i, n := range r.histNames {
			s.Hists[i] = HistogramValue{Name: n, Buckets: trimTrailingZeros(r.hists[i][:])}
		}
	}
	return s
}

// trimTrailingZeros copies b up to (and including) its last non-zero
// element.
func trimTrailingZeros(b []uint64) []uint64 {
	end := 0
	for i, v := range b {
		if v != 0 {
			end = i + 1
		}
	}
	out := make([]uint64, end)
	copy(out, b[:end])
	return out
}

// Counter returns the named counter's value in the snapshot (0, false
// when absent).
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// SetState overwrites the registry's metric values from a snapshot
// (the checkpoint-restore path). Metrics registered on the receiver but
// absent from the snapshot reset to zero — a zero-value Snapshot resets
// the whole registry — so restoring an older checkpoint into a machine
// with newer metrics stays well-defined. Views are the exception: their
// values belong to their owners, whose own state restore sets them, so
// SetState never writes them. Snapshot entries naming metrics the
// receiver never registered are rejected: they indicate a checkpoint
// from a differently instrumented build.
func (r *Registry) SetState(s Snapshot) error {
	for i := range r.own {
		r.own[i] = 0
	}
	for _, h := range r.hists {
		*h = [HistBuckets]uint64{}
	}
	for _, cv := range s.Counters {
		idx := r.index(cv.Name)
		if idx < 0 {
			return fmt.Errorf("telemetry: state holds unknown counter %q", cv.Name)
		}
		if !r.isView(idx) {
			r.own[idx] = cv.Value
		}
	}
	for _, hv := range s.Hists {
		idx := -1
		for i, n := range r.histNames {
			if n == hv.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("telemetry: state holds unknown histogram %q", hv.Name)
		}
		if len(hv.Buckets) > HistBuckets {
			return fmt.Errorf("telemetry: histogram %q state has %d buckets, max %d", hv.Name, len(hv.Buckets), HistBuckets)
		}
		copy(r.hists[idx][:], hv.Buckets)
	}
	return nil
}

// Merge adds src's metrics into dst, matching by name; metrics absent
// from dst are appended in src order. Merging job snapshots in input
// order therefore yields the same result for every worker count — the
// determinism contract the runner's per-job metric merging relies on.
func Merge(dst *Snapshot, src Snapshot) {
	for _, cv := range src.Counters {
		found := false
		for i := range dst.Counters {
			if dst.Counters[i].Name == cv.Name {
				dst.Counters[i].Value += cv.Value
				found = true
				break
			}
		}
		if !found {
			dst.Counters = append(dst.Counters, cv)
		}
	}
	for _, hv := range src.Hists {
		found := false
		for i := range dst.Hists {
			if dst.Hists[i].Name == hv.Name {
				dst.Hists[i].Buckets = addBuckets(dst.Hists[i].Buckets, hv.Buckets)
				found = true
				break
			}
		}
		if !found {
			cp := make([]uint64, len(hv.Buckets))
			copy(cp, hv.Buckets)
			dst.Hists = append(dst.Hists, HistogramValue{Name: hv.Name, Buckets: cp})
		}
	}
}

// addBuckets returns the element-wise sum of a and b, extending to the
// longer of the two.
func addBuckets(a, b []uint64) []uint64 {
	if len(b) > len(a) {
		grown := make([]uint64, len(b))
		copy(grown, a)
		a = grown
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}
