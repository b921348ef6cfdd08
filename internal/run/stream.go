// Package run is the one simulation engine behind emsim, emsimd and the
// interval sampler. The paper's measurement is a single reference
// stream fed to two machines — the 1-core baseline and the N-core
// migration chip — and its ratios mean something only if both machines
// see identical events. Every surface's byte-identity rests on numbering,
// skipping and splitting that stream the same way, so this package holds
// the single copy of that machinery:
//
//   - Input.Feed drives a workload (through a mem.Batcher) or a recorded
//     trace (through trace.BatchReader) into a sink;
//   - Stream tees the events into the machines, numbers them, discards a
//     resume prefix, splits batches at boundaries and fires one hook at
//     each, and stops the source through the one stop sentinel;
//   - Pair builds the two machines of a scenario, checkpoints them as
//     EMCKPT1 and restores them.
package run

import (
	"math"
	"sync/atomic"

	"repro/internal/mem"
)

// Stream is the engine's sink. It numbers every event it receives (an
// Access, an Instr, or one record of a batch), discards the first Skip
// events, tees the rest into To, and acts at boundary events:
//
//   - each multiple of an Every period strictly past Skip. A resumed run
//     already acted at its resume edge before it was checkpointed, so
//     periodic hooks (timeline ticks, checkpoint saves) never fire there
//     again;
//   - each event in Cuts (ascending) at or past Skip, the skip edge
//     included: a sampled chain without warmup starts measuring at its
//     fast-forward edge itself. Cuts inside the prefix never fire;
//   - StopAt (0 = never), where the stream stops after any hook.
//
// Hook runs once per boundary event, after every event up to it and
// before any later one has reached the machines; a non-nil error stops
// the stream and Run returns it. Batches are delivered in sub-spans that
// never straddle a boundary, so every batch length — down to the single
// record of the Access/Instr forwards — acts at identical events on
// identical machine state. Stop, when it becomes true, stops the stream
// at the next span (the asynchronous interrupt: SIGINT, a deadline, a
// drain).
//
// A Stream must be driven through Run, which owns the stop sentinel.
// To may be re-pointed between events (the sampler's warm start swaps
// in restored machines from its Hook).
type Stream struct {
	To     []mem.BatchSink
	Skip   uint64
	Every  []uint64
	Cuts   []uint64
	StopAt uint64
	Stop   *atomic.Bool
	Hook   func(events uint64) error

	events uint64 // events seen, including the skipped prefix
	next   uint64 // the next boundary event (0 until event 0's boundary ran)
	ci     int    // first index of Cuts not yet passed
	err    error  // the Hook error that stopped the stream

	// view is the reusable sub-batch header spans are delivered
	// through, so boundary splitting never allocates; rec carries the
	// Access/Instr forwards' one record.
	view mem.Batch
	rec  mem.Record
}

// stopSignal is the sentinel unwind panics with to end a source early:
// workload generators and trace decoders cannot return mid-stream.
type stopSignal struct{}

// unwind panics with v: the stop sentinel, or a foreign panic that Run's
// recover caught and re-raises unchanged.
func unwind(v any) {
	//emlint:allowpanic control-flow sentinel: generators cannot return early; Run recovers it and re-raises anything else through here
	panic(v)
}

// Run drives src into the stream. stopped reports that the stream
// stopped the source (StopAt, Stop or a Hook error, which comes back as
// err) instead of the source running to its end.
func (s *Stream) Run(src func(mem.BatchSink) error) (stopped bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); !ok {
				unwind(r)
			}
			stopped, err = true, s.err
		}
	}()
	s.cross()
	return false, src(s)
}

// Events is the number of events the stream has seen, the skipped
// prefix included.
func (s *Stream) Events() uint64 { return s.events }

// Position is the event the machines have reached: Events, except that
// a stream stopped inside its skip prefix leaves restored machines at
// Skip.
func (s *Stream) Position() uint64 { return max(s.events, s.Skip) }

// cross runs the boundary at the current event, if there is one, and
// honours an asynchronous stop request.
func (s *Stream) cross() {
	if s.events == s.next {
		s.boundary()
	}
	if s.Stop != nil && s.Stop.Load() {
		unwind(stopSignal{})
	}
}

// boundary acts at s.next == s.events: fire the hook if a cut or a
// period lands here, stop at StopAt, and find the next boundary.
func (s *Stream) boundary() {
	ev := s.events
	fire := false
	for s.ci < len(s.Cuts) && s.Cuts[s.ci] <= ev {
		fire = fire || (s.Cuts[s.ci] == ev && ev >= s.Skip)
		s.ci++
	}
	if ev > s.Skip {
		for _, e := range s.Every {
			if e > 0 && ev%e == 0 {
				fire = true
			}
		}
	}
	if fire && s.Hook != nil {
		if err := s.Hook(ev); err != nil {
			s.err = err
			unwind(stopSignal{})
		}
	}
	if ev == s.StopAt && ev > 0 {
		unwind(stopSignal{})
	}
	s.next = s.nextBoundary()
}

// nextBoundary returns the first boundary event after s.events. Inside
// the skip prefix only the skip edge and StopAt split a batch.
func (s *Stream) nextBoundary() uint64 {
	ev := s.events
	next := uint64(math.MaxUint64)
	if ev < s.Skip {
		next = s.Skip
	} else {
		for _, e := range s.Every {
			if e > 0 {
				next = min(next, ev-ev%e+e)
			}
		}
		if s.ci < len(s.Cuts) {
			next = min(next, s.Cuts[s.ci])
		}
	}
	if s.StopAt > ev {
		next = min(next, s.StopAt)
	}
	return next
}

// Access implements mem.Sink: one record through AccessBatch, for
// sources that emit a record at a time.
func (s *Stream) Access(addr mem.Addr, kind mem.Kind) { s.AccessBatch(s.rec.Access(addr, kind)) }

// Instr implements mem.Sink: one record through AccessBatch.
func (s *Stream) Instr(n uint64) { s.AccessBatch(s.rec.Instr(n)) }

// AccessBatch implements mem.BatchSink: the batch is cut at every
// boundary inside it, each span either discarded (skip prefix) or handed
// straight to every target's batch kernel. Targets may not retain or
// mutate the batch, so handing the same view to each is safe.
//
//emlint:hotpath
func (s *Stream) AccessBatch(b *mem.Batch) {
	i, n := 0, b.Len()
	for {
		s.cross()
		if i == n {
			return
		}
		span := min(uint64(n-i), s.next-s.events)
		if s.events >= s.Skip {
			s.view.Addr = b.Addr[i : i+int(span)]
			s.view.Kind = b.Kind[i : i+int(span)]
			for _, o := range s.To {
				o.AccessBatch(&s.view)
			}
		}
		s.events += span
		i += int(span)
	}
}

var _ mem.BatchSink = (*Stream)(nil)
