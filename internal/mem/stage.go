package mem

import "sync"

// Stage runs a batch source on its own goroutine, a bounded ring of
// batches ahead of the goroutine that reads them, so producing a stream
// (generating a workload, decoding a trace) overlaps consuming it. It
// is the simulator's one producer-to-reader batch hand-off: the
// multiprogram co-scheduler reads one Stage per program, and the
// sampled profile pass reads its input through one.
//
// The reader sees exactly the batches a mem.Batcher in front of it
// would have delivered: scalar records are cut into DefaultBatchLen
// batches, and every AccessBatch — empty ones included — arrives as one
// batch with its records and boundary unchanged, never merged with a
// neighbour or split. Each delivered batch is copied into one of the
// stage's depth+1 owned buffers and handed over through a channel of
// capacity depth-1: once a send completes the reader has taken the
// batch depth places back, so it has finished the batch before that,
// whose buffer the producer fills next. The steady state allocates
// nothing.
//
// The reader drains the stage with Next and ends it with Close, which
// also stops a source the reader abandons mid-stream: the source
// unwinds at its next delivery, and Close waits until its goroutine has
// returned, so nothing it wrote is read early and nothing outlives the
// stage. A source error comes back from Close after every batch
// delivered before it; a foreign panic of the source is re-raised on
// the reader's goroutine.
type Stage struct {
	full     chan *Batch   // delivered batches in order; closed when the source ends
	done     chan struct{} // closed by Close: the reader stops
	exited   chan struct{} // closed once the producer goroutine has returned
	stopOnce sync.Once

	// Written by the producer before full closes, read after.
	err      error
	panicked any

	raised bool // the reader has re-raised panicked
}

// stageClosed is the sentinel a delivery panics with once the reader
// closed the stage: sources cannot return mid-stream, so the producer
// unwinds to the stage's recover instead.
type stageClosed struct{}

// NewStage starts src on its own goroutine, up to depth batches (at
// least one) ahead of the reader.
func NewStage(depth int, src func(BatchSink) error) *Stage {
	depth = max(depth, 1)
	s := &Stage{
		full:   make(chan *Batch, depth-1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	w := &stageWriter{full: s.full, done: s.done, bufs: make([]*Batch, depth+1)}
	for i := range w.bufs {
		w.bufs[i] = NewBatch(DefaultBatchLen)
	}
	w.cur = w.bufs[0]
	go s.produce(w, src)
	return s
}

// produce runs the source into the ring and ends the stream: it flushes
// a source that finished cleanly, records its error or foreign panic,
// and closes full, then exited.
func (s *Stage) produce(w *stageWriter, src func(BatchSink) error) {
	defer close(s.exited)
	defer close(s.full)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stageClosed); !ok {
				s.panicked = r
			}
		}
	}()
	if s.err = src(w); s.err == nil {
		w.flush()
	}
}

// Next returns the next batch, or nil once the source has ended. The
// batch belongs to the reader until its next call of Next, and the
// reader may change its records in place.
func (s *Stage) Next() *Batch {
	if b, ok := <-s.full; ok {
		return b
	}
	s.reraise()
	return nil
}

// Close ends the stage: a source still running unwinds at its next
// delivery. It waits for the producer goroutine to return, then
// re-raises the source's panic if Next has not, or returns the source's
// error. Close may be called more than once; Next may not be called
// after it.
func (s *Stage) Close() error {
	s.stopOnce.Do(func() { close(s.done) })
	<-s.exited
	s.reraise()
	return s.err
}

// reraise re-raises a foreign panic of the source, once.
func (s *Stage) reraise() {
	if s.panicked != nil && !s.raised {
		s.raised = true
		//emlint:allowpanic a source's own panic, carried from the producer goroutine to the reader's unchanged
		panic(s.panicked)
	}
}

// Staged returns src run through a Stage of the given depth: the
// returned source starts src on its own goroutine, delivers every batch
// to its sink on the caller's goroutine, and returns src's error once
// src's goroutine has returned. A sink that stops the stream by
// panicking (run.Stream's stop) closes the stage on the way out.
func Staged(depth int, src func(BatchSink) error) func(BatchSink) error {
	return func(sink BatchSink) error {
		s := NewStage(depth, src)
		defer s.Close()
		for b := s.Next(); b != nil; b = s.Next() {
			sink.AccessBatch(b)
		}
		return s.Close()
	}
}

// stageWriter is the producer's end of a Stage: the sink the source
// writes into.
type stageWriter struct {
	full chan<- *Batch
	done <-chan struct{}
	bufs []*Batch
	i    int    // index of cur in bufs
	cur  *Batch // the buffer being filled
}

// Access implements Sink.
func (w *stageWriter) Access(addr Addr, kind Kind) {
	w.cur.Append(addr, kind)
	if w.cur.Len() == DefaultBatchLen {
		w.send()
	}
}

// Instr implements Sink.
func (w *stageWriter) Instr(n uint64) {
	w.cur.AppendInstr(n)
	if w.cur.Len() == DefaultBatchLen {
		w.send()
	}
}

// AccessBatch implements BatchSink: pending scalar records go first,
// then b as one batch of its own. A batch longer than DefaultBatchLen
// grows the buffer it is copied into.
func (w *stageWriter) AccessBatch(b *Batch) {
	w.flush()
	w.cur.Addr = append(w.cur.Addr[:0], b.Addr...)
	w.cur.Kind = append(w.cur.Kind[:0], b.Kind...)
	w.send()
}

// flush hands over pending scalar records.
func (w *stageWriter) flush() {
	if w.cur.Len() > 0 {
		w.send()
	}
}

// send hands cur to the reader and moves to the next buffer of the
// ring, unwinding instead once the reader has closed the stage.
func (w *stageWriter) send() {
	select {
	case <-w.done:
		w.stop()
	default:
	}
	select {
	case w.full <- w.cur:
	case <-w.done:
		w.stop()
	}
	w.i = (w.i + 1) % len(w.bufs)
	w.cur = w.bufs[w.i]
	w.cur.Reset()
}

// stop unwinds the source to produce's recover.
func (w *stageWriter) stop() {
	//emlint:allowpanic control-flow sentinel: sources cannot return mid-stream; produce recovers it
	panic(stageClosed{})
}

var _ BatchSink = (*stageWriter)(nil)
