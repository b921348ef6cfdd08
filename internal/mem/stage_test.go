package mem

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// batchLog is a batch kernel that keeps every delivered batch, its
// boundary included.
type batchLog struct{ batches []recorder }

func (l *batchLog) AccessBatch(b *Batch) {
	var r recorder
	r.AccessBatch(b)
	l.batches = append(l.batches, r)
}

// mixedSource emits scalar records, pass-through batches of irregular
// length (one longer than DefaultBatchLen) and empty batches, in an
// order that leaves scalar records pending when a batch arrives.
func mixedSource(sink BatchSink) error {
	next := Addr(0)
	scalars := func(n int) {
		for i := 0; i < n; i++ {
			next++
			if i%3 == 0 {
				sink.Instr(uint64(next))
			} else {
				sink.Access(next*64, Kind(i%3))
			}
		}
	}
	batch := func(n int) {
		b := NewBatch(max(n, 1))
		for i := 0; i < n; i++ {
			next++
			b.Append(next*64, Store)
		}
		sink.AccessBatch(b)
	}
	scalars(3*DefaultBatchLen + 5)
	batch(17)
	batch(0)
	scalars(1)
	batch(DefaultBatchLen + 300)
	scalars(2*DefaultBatchLen - 1)
	batch(0)
	batch(0)
	batch(1)
	scalars(DefaultBatchLen)
	batch(4000)
	// Enough full batches to reuse every buffer of the deepest ring,
	// the one the long batch grew included.
	scalars(20*DefaultBatchLen + 7)
	return nil
}

// drain reads every batch of s into a log and closes it.
func drain(s *Stage) (batchLog, error) {
	var got batchLog
	for b := s.Next(); b != nil; b = s.Next() {
		got.AccessBatch(b)
	}
	return got, s.Close()
}

// TestStageKeepsBatches: at every depth the reader sees the records and
// the batch boundaries a Batcher delivering directly would produce,
// empty batches included.
func TestStageKeepsBatches(t *testing.T) {
	var want batchLog
	ba := NewBatcher(&want, 0)
	if err := mixedSource(ba); err != nil {
		t.Fatal(err)
	}
	ba.Flush()
	for _, depth := range []int{1, 2, 8, 16} {
		got, err := drain(NewStage(depth, mixedSource))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(got.batches) != len(want.batches) {
			t.Fatalf("depth %d: %d batches, want %d", depth, len(got.batches), len(want.batches))
		}
		for i := range want.batches {
			if !reflect.DeepEqual(got.batches[i], want.batches[i]) {
				t.Fatalf("depth %d: batch %d diverged (%d records, want %d)",
					depth, i, len(got.batches[i].kinds), len(want.batches[i].kinds))
			}
		}
	}
}

// endless emits scalar records until its stage stops it.
func endless(sink BatchSink) error {
	for i := uint64(0); ; i++ {
		sink.Access(Addr(i)*64, Load)
	}
}

// waitGoroutines fails unless the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after the stage closed, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageReaderStops: a reader that stops mid-stream, by closing the
// stage or by a sink panicking through Staged, leaves no producer
// behind, even one that only ever offers empty batches.
func TestStageReaderStops(t *testing.T) {
	emptyForever := func(sink BatchSink) error {
		var empty Batch
		for {
			sink.AccessBatch(&empty)
		}
	}
	for _, depth := range []int{1, 8} {
		for _, src := range []func(BatchSink) error{endless, emptyForever} {
			before := runtime.NumGoroutine()
			s := NewStage(depth, src)
			for i := 0; i < 3; i++ {
				if s.Next() == nil {
					t.Fatalf("depth %d: stream ended early", depth)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("depth %d: stopped source returned %v", depth, err)
			}
			waitGoroutines(t, before)
		}

		before := runtime.NumGoroutine()
		type stop struct{}
		func() {
			defer func() {
				if r := recover(); r != (stop{}) {
					t.Fatalf("depth %d: recovered %v, want the sink's stop", depth, r)
				}
			}()
			n := 0
			Staged(depth, endless)(&batchFunc{func(*Batch) {
				if n++; n == 3 {
					panic(stop{})
				}
			}})
		}()
		waitGoroutines(t, before)
	}
}

// batchFunc adapts a function to a BatchSink.
type batchFunc struct{ f func(*Batch) }

func (s *batchFunc) Access(a Addr, k Kind) { s.f(new(Record).Access(a, k)) }
func (s *batchFunc) Instr(n uint64)        { s.f(new(Record).Instr(n)) }
func (s *batchFunc) AccessBatch(b *Batch)  { s.f(b) }

// TestStageSourceError: a source error comes back from Close after
// every batch delivered before it.
func TestStageSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := func(sink BatchSink) error {
		b := NewBatch(0)
		for i := 0; i < 5; i++ {
			b.Reset()
			b.Append(Addr(i), Load)
			sink.AccessBatch(b)
		}
		return boom
	}
	for _, depth := range []int{1, 8} {
		got, err := drain(NewStage(depth, src))
		if !errors.Is(err, boom) {
			t.Fatalf("depth %d: error %v, want %v", depth, err, boom)
		}
		if len(got.batches) != 5 {
			t.Fatalf("depth %d: %d batches before the error, want 5", depth, len(got.batches))
		}
		for i, b := range got.batches {
			if len(b.addrs) != 1 || b.addrs[0] != uint64(i) {
				t.Fatalf("depth %d: batch %d = %+v", depth, i, b)
			}
		}
		if err := Staged(depth, src)(&batchFunc{func(*Batch) {}}); !errors.Is(err, boom) {
			t.Fatalf("depth %d: Staged returned %v, want %v", depth, err, boom)
		}
	}
}

// TestStageSourcePanic: a source's own panic re-raises, unchanged, on
// the reader's goroutine once the batches before it are read.
func TestStageSourcePanic(t *testing.T) {
	type fault struct{ n int }
	src := func(sink BatchSink) error {
		sink.AccessBatch(NewBatch(0))
		panic(fault{7})
	}
	before := runtime.NumGoroutine()
	s := NewStage(4, src)
	if s.Next() == nil {
		t.Fatal("the batch before the panic was lost")
	}
	func() {
		defer func() {
			if r := recover(); r != (fault{7}) {
				t.Fatalf("recovered %v, want the source's panic", r)
			}
		}()
		s.Next()
		t.Fatal("Next returned after the source panicked")
	}()
	if err := s.Close(); err != nil {
		t.Fatalf("Close after the re-raise returned %v", err)
	}
	waitGoroutines(t, before)
}

// TestStageAllocs: in steady state a stage allocates nothing, on either
// side, for scalar records or pass-through batches.
func TestStageAllocs(t *testing.T) {
	whole := NewBatch(0)
	for i := 0; i < DefaultBatchLen; i++ {
		whole.Append(Addr(i)*64, Load)
	}
	batches := func(sink BatchSink) error {
		for {
			sink.AccessBatch(whole)
		}
	}
	for _, src := range []func(BatchSink) error{endless, batches} {
		s := NewStage(8, src)
		for i := 0; i < 20; i++ {
			s.Next()
		}
		if allocs := testing.AllocsPerRun(1, func() {
			for n := 0; n < 200; n++ {
				s.Next()
			}
		}); allocs != 0 {
			t.Errorf("200 staged batches allocate %v times", allocs)
		}
		s.Close()
	}
}
