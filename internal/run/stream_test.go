package run

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// recSink records every delivered record, batch records unrolled.
type recSink struct {
	addrs []mem.Addr
	kinds []uint8
}

func (r *recSink) Access(a mem.Addr, k mem.Kind) {
	r.addrs = append(r.addrs, a)
	r.kinds = append(r.kinds, uint8(k))
}

func (r *recSink) Instr(n uint64) {
	r.addrs = append(r.addrs, mem.Addr(n))
	r.kinds = append(r.kinds, mem.KindInstr)
}

func (r *recSink) AccessBatch(b *mem.Batch) { mem.DeliverBatch(b, r) }

// records is a seeded mixed stream of accesses and instruction retires.
func records(seed uint64, n int) *mem.Batch {
	rng := trace.NewRNG(seed)
	b := mem.NewBatch(n)
	for i := 0; i < n; i++ {
		if rng.Uint64n(3) == 0 {
			b.AppendInstr(rng.Uint64n(8) + 1)
			continue
		}
		b.Append(mem.Addr(rng.Uint64n(1<<20)), mem.Kind(rng.Uint64n(4)))
	}
	return b
}

// recordSource delivers recs one Access or Instr call per record.
func recordSource(recs *mem.Batch) func(mem.BatchSink) error {
	return func(sink mem.BatchSink) error {
		mem.DeliverBatch(recs, sink)
		return nil
	}
}

// batchedSource delivers recs through a Batcher of batch length n.
func batchedSource(recs *mem.Batch, n int) func(mem.BatchSink) error {
	return func(sink mem.BatchSink) error {
		ba := mem.NewBatcher(sink, n)
		mem.DeliverBatch(recs, ba)
		ba.Flush()
		return nil
	}
}

// bounds is one Stream boundary configuration under test.
type bounds struct {
	skip, stopAt uint64
	every, cuts  []uint64
}

func (b bounds) String() string {
	return fmt.Sprintf("skip=%d every=%v cuts=%v stopAt=%d", b.skip, b.every, b.cuts, b.stopAt)
}

// outcome is everything observable about one driven stream.
type outcome struct {
	rec     recSink
	hooks   []uint64 // hook events, in firing order
	seen    []int    // records delivered when each hook fired
	events  uint64
	stopped bool
}

func drain(t *testing.T, b bounds, src func(mem.BatchSink) error) outcome {
	t.Helper()
	var o outcome
	s := &Stream{To: []mem.BatchSink{&o.rec}, Skip: b.skip, Every: b.every, Cuts: b.cuts, StopAt: b.stopAt}
	s.Hook = func(ev uint64) error {
		o.hooks = append(o.hooks, ev)
		o.seen = append(o.seen, len(o.rec.kinds))
		return nil
	}
	stopped, err := s.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	o.events, o.stopped = s.Events(), stopped
	return o
}

// reference computes the outcome from the Stream contract directly,
// event by event.
func reference(b bounds, recs *mem.Batch) outcome {
	total := uint64(recs.Len())
	end, stopped := total, false
	if b.stopAt > 0 && b.stopAt <= total {
		end, stopped = b.stopAt, true
	}
	var o outcome
	for ev := uint64(0); ev <= end; ev++ {
		if ev > 0 && ev-1 >= b.skip {
			i := ev - 1
			o.rec.addrs = append(o.rec.addrs, recs.Addr[i])
			o.rec.kinds = append(o.rec.kinds, recs.Kind[i])
		}
		fire := false
		for _, c := range b.cuts {
			fire = fire || (c == ev && ev >= b.skip)
		}
		for _, e := range b.every {
			fire = fire || (ev > b.skip && e > 0 && ev%e == 0)
		}
		if fire {
			o.hooks = append(o.hooks, ev)
			o.seen = append(o.seen, len(o.rec.kinds))
		}
	}
	o.events, o.stopped = end, stopped
	return o
}

// randomBounds draws a boundary configuration over a stream of total
// events, biased towards the edges where splitting can go wrong.
func randomBounds(rng *trace.RNG, total uint64) bounds {
	pick := func() uint64 {
		switch rng.Uint64n(4) {
		case 0:
			return rng.Uint64n(3)
		case 1:
			return total - rng.Uint64n(3)
		default:
			return rng.Uint64n(total + 2)
		}
	}
	var b bounds
	if rng.Uint64n(3) > 0 {
		b.skip = pick()
	}
	for n := rng.Uint64n(3); n > 0; n-- {
		b.every = append(b.every, rng.Uint64n(600)+1)
	}
	var cuts []uint64
	if rng.Uint64n(2) == 0 {
		cuts = append(cuts, b.skip) // the skip edge itself
	}
	for n := rng.Uint64n(4); n > 0; n-- {
		cuts = append(cuts, pick())
	}
	slices.Sort(cuts)
	b.cuts = slices.Compact(cuts)
	if rng.Uint64n(3) > 0 {
		b.stopAt = pick()
	}
	return b
}

// TestStreamPathsAgree is the engine's parity property: the per-record
// forwards (Access/Instr) and batched delivery — at batch lengths 1,
// odd sizes and the default 4096 — deliver identical records, fire the
// hook at identical events on identical delivered state, and end at
// identical event counts, for any skip, periodic and absolute
// boundaries and stop-at event. Both must also match the contract
// computed event by event.
func TestStreamPathsAgree(t *testing.T) {
	const total = 5000
	recs := records(1, total)
	table := []bounds{
		{},
		{skip: 1},
		{skip: 4096, every: []uint64{4096}},
		{every: []uint64{7}, cuts: []uint64{0, 1, 4095, 4096, 4097}},
		{skip: 1234, every: []uint64{1234}, cuts: []uint64{1234}}, // hooks at the skip edge: cut yes, period no
		{skip: 100, stopAt: 50, cuts: []uint64{10, 50}},           // stop inside the prefix
		{skip: 100, stopAt: 100, cuts: []uint64{100}},             // stop at the skip edge, after its cut
		{stopAt: total, every: []uint64{total}},                   // stop on the last event
		{skip: total, cuts: []uint64{total}},                      // everything skipped
		{skip: total + 5, stopAt: total + 1, every: []uint64{1}},  // prefix longer than the stream
		{every: []uint64{1}, stopAt: 3},                           // a boundary at every event
		{every: []uint64{333, 500}, cuts: []uint64{999, 1000, 1001}, stopAt: 2999},
	}
	rng := trace.NewRNG(42)
	for i := 0; i < 150; i++ {
		table = append(table, randomBounds(rng, total))
	}
	for _, b := range table {
		want := reference(b, recs)
		got := drain(t, b, recordSource(recs))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: per-record path diverges from the contract:\ngot  hooks %v seen %v events %d stopped %v (%d records)\nwant hooks %v seen %v events %d stopped %v (%d records)",
				b, got.hooks, got.seen, got.events, got.stopped, len(got.rec.kinds),
				want.hooks, want.seen, want.events, want.stopped, len(want.rec.kinds))
		}
		for _, n := range []int{1, 3, 129, 1001, 4096} {
			if got := drain(t, b, batchedSource(recs, n)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v batch %d: batched path diverges:\ngot  hooks %v seen %v events %d stopped %v (%d records)\nwant hooks %v seen %v events %d stopped %v (%d records)",
					b, n, got.hooks, got.seen, got.events, got.stopped, len(got.rec.kinds),
					want.hooks, want.seen, want.events, want.stopped, len(want.rec.kinds))
			}
		}
	}
}

// TestStreamTeesEveryTarget: each target sees the identical stream.
func TestStreamTeesEveryTarget(t *testing.T) {
	recs := records(2, 3000)
	var a, b recSink
	s := &Stream{To: []mem.BatchSink{&a, &b}, Skip: 17, Every: []uint64{100}}
	if _, err := s.Run(batchedSource(recs, 129)); err != nil {
		t.Fatal(err)
	}
	if len(a.kinds) != 3000-17 || !reflect.DeepEqual(a, b) {
		t.Fatalf("tee targets diverge: %d vs %d records", len(a.kinds), len(b.kinds))
	}
}

// TestStreamHookErrorStops: a hook error stops the source at that
// boundary and comes back from Run.
func TestStreamHookErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var rec recSink
	s := &Stream{To: []mem.BatchSink{&rec}, Every: []uint64{250}}
	s.Hook = func(ev uint64) error {
		if ev == 750 {
			return boom
		}
		return nil
	}
	stopped, err := s.Run(batchedSource(records(3, 2000), 4096))
	if !stopped || !errors.Is(err, boom) {
		t.Fatalf("stopped=%v err=%v, want the hook error", stopped, err)
	}
	if s.Events() != 750 || len(rec.kinds) != 750 {
		t.Fatalf("stopped at event %d after %d records, want 750", s.Events(), len(rec.kinds))
	}
}

// TestStreamStopFlag: an asynchronous stop request ends the stream at
// the next span, and Position never reports less than the restored
// prefix.
func TestStreamStopFlag(t *testing.T) {
	var stop atomic.Bool
	var rec recSink
	s := &Stream{To: []mem.BatchSink{&rec}, Skip: 500, Stop: &stop}
	src := func(sink mem.BatchSink) error {
		recs := records(4, 300)
		sink.AccessBatch(recs)
		stop.Store(true)
		sink.AccessBatch(recs)
		t.Fatal("stream kept running after the stop request")
		return nil
	}
	stopped, err := s.Run(src)
	if !stopped || err != nil {
		t.Fatalf("stopped=%v err=%v", stopped, err)
	}
	if s.Events() != 300 || s.Position() != 500 || len(rec.kinds) != 0 {
		t.Fatalf("events %d position %d delivered %d, want 300/500/0", s.Events(), s.Position(), len(rec.kinds))
	}
}

// TestStreamReraisesForeignPanics: only the stop sentinel is recovered.
func TestStreamReraisesForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "source bug" {
			t.Fatalf("recovered %v, want the source's own panic", r)
		}
	}()
	s := &Stream{}
	s.Run(func(mem.BatchSink) error { panic("source bug") })
	t.Fatal("foreign panic swallowed")
}

// TestStreamAccessBatchZeroAllocs: steady-state batched delivery,
// boundary splitting and hook firing included, allocates nothing.
func TestStreamAccessBatchZeroAllocs(t *testing.T) {
	recs := records(5, mem.DefaultBatchLen)
	var sink mem.CountingSink
	hooks := 0
	s := &Stream{
		To:    []mem.BatchSink{batchOf{&sink}},
		Every: []uint64{1000, 777},
		Hook:  func(uint64) error { hooks++; return nil },
	}
	s.AccessBatch(recs) // first boundary
	if allocs := testing.AllocsPerRun(50, func() { s.AccessBatch(recs) }); allocs != 0 {
		t.Fatalf("Stream.AccessBatch allocates %.1f per batch", allocs)
	}
	if hooks == 0 {
		t.Fatal("no boundary fired; the split path went unmeasured")
	}
}

// batchOf lifts a scalar sink to a BatchSink without allocating.
type batchOf struct{ mem.Sink }

func (b batchOf) AccessBatch(batch *mem.Batch) { mem.DeliverBatch(batch, b.Sink) }
