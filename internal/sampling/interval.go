// Package sampling implements interval sampling with checkpoint
// warm-start: the SimPoint-style recipe of "Improving the
// Representativeness of Simulation Intervals for the Cache Memory
// System" applied to the execution-migration experiments. One cheap
// machine-free profiling pass splits the event stream into fixed-size
// instruction intervals and fingerprints each with its lrustack
// working-set signature; a deterministic seeded k-medoids groups the
// fingerprints; only the representative intervals are simulated at full
// fidelity (each warm-started through an EMCKPT1 snapshot round-trip at
// its start boundary); and the full-run metric totals are reconstructed
// as stratified estimates with per-metric error bars from the recorded
// within-cluster variance.
//
// Everything here is deterministic: the same stream, interval size,
// cluster count and seed produce byte-identical estimates, and the
// chain jobs of the simulation pass merge in index order so serial and
// parallel runs agree (the repository's -j contract).
package sampling

import (
	"fmt"

	"repro/internal/lrustack"
	"repro/internal/mem"
)

// DefaultStackLimit caps the profiling pass's LRU stack at twice the
// largest paper threshold (16 MB of 64-byte lines), the same
// bounded-memory convention as the lrustack/affinity caps: signatures
// stay exact for every threshold in the grid while a pathological
// working set cannot grow the profiler without bound.
const DefaultStackLimit = 1 << 19

// Interval is one fixed-instruction-count slice of the event stream.
type Interval struct {
	Index int
	// StartEvent and EndEvent delimit the interval on the shared event
	// numbering (one count per Access or Instr sink call, the same
	// numbering the run engine's Stream uses): the interval covers
	// events StartEvent+1 .. EndEvent, so StartEvent doubles as the
	// fast-forward count for a pass that begins at this interval.
	StartEvent uint64
	EndEvent   uint64
	// Instr is the number of instructions retired in the interval and
	// Refs the number of access records; the final interval of a stream
	// may run short of the configured size.
	Instr uint64
	Refs  uint64
	// Sig is the interval's working-set signature
	// (lrustack.Profile.Signature over the paper threshold grid).
	Sig []float64
}

// Events returns the number of sink events the interval spans.
func (iv Interval) Events() uint64 { return iv.EndEvent - iv.StartEvent }

// Profiler is the single cheap profiling pass: a mem.BatchSink that
// numbers events exactly like the simulation sinks, carves the stream
// at instruction-count boundaries, and fingerprints each interval from
// one persistent capped LRU stack (the stack keeps cross-interval reuse
// history; the per-interval profile counts reset at every cut). No
// machine is simulated, which is what makes the pass cheap relative to
// the two-machine tee it stands in for.
type Profiler struct {
	interval uint64 // instructions per interval
	shift    uint

	stack *lrustack.Stack
	prof  *lrustack.Profile

	events    uint64 // events seen (Access + Instr calls)
	instr     uint64 // instructions retired
	next      uint64 // instruction threshold that ends the current interval
	start     uint64 // event count at the current interval's start
	lastInstr uint64 // instructions retired before the current interval

	intervals []Interval
}

// NewProfiler builds a profiler cutting every intervalInstr
// instructions, with lines derived from addresses by lineShift. The
// signature grid is the paper's Figure 4/5 threshold set.
func NewProfiler(intervalInstr uint64, lineShift uint) (*Profiler, error) {
	if intervalInstr == 0 {
		return nil, fmt.Errorf("sampling: interval must be positive")
	}
	return &Profiler{
		interval: intervalInstr,
		shift:    lineShift,
		stack:    lrustack.NewLimited(DefaultStackLimit),
		prof:     lrustack.NewProfile(lrustack.PaperThresholds(lineShift)),
		next:     intervalInstr,
	}, nil
}

// Access implements mem.Sink: one reference through the stack into the
// current interval's profile.
func (p *Profiler) Access(addr mem.Addr, kind mem.Kind) {
	p.events++
	p.prof.Record(p.stack.Ref(mem.LineOf(addr, p.shift)))
}

// Instr implements mem.Sink. Interval boundaries land exactly on the
// Instr event that crosses the threshold, so a cut is always a
// well-defined event index the simulation pass can fast-forward to.
func (p *Profiler) Instr(n uint64) {
	p.events++
	p.instr += n
	if p.instr >= p.next {
		p.cut()
	}
}

// AccessBatch implements mem.BatchSink by replaying the batch through
// Access and Instr, the profiler's one kernel: an interval cut falls on
// the exact instruction record that crosses its threshold.
func (p *Profiler) AccessBatch(b *mem.Batch) {
	kinds, addrs := b.Kind, b.Addr
	for i, k := range kinds {
		if k == mem.KindInstr {
			p.Instr(uint64(addrs[i]))
			continue
		}
		p.Access(addrs[i], mem.Kind(k))
	}
}

// cut finalizes the current interval and opens the next one.
func (p *Profiler) cut() {
	p.intervals = append(p.intervals, Interval{
		Index:      len(p.intervals),
		StartEvent: p.start,
		EndEvent:   p.events,
		Instr:      p.instr - p.lastInstr,
		Refs:       p.prof.Refs,
		Sig:        p.prof.Signature(),
	})
	p.prof.Reset()
	p.start = p.events
	p.lastInstr = p.instr
	// A single Instr record can retire more than one interval's worth
	// of instructions; the next threshold is the first multiple beyond
	// the current count, so intervals never come out empty.
	p.next = (p.instr/p.interval + 1) * p.interval
}

// Finish closes the trailing partial interval (if any events arrived
// since the last cut) and returns the interval set. The profiler must
// not be fed after Finish.
func (p *Profiler) Finish() []Interval {
	if p.events > p.start {
		p.cut()
	}
	return p.intervals
}

// Events returns the total number of sink events profiled.
func (p *Profiler) Events() uint64 { return p.events }

// TotalInstr returns the total instructions retired.
func (p *Profiler) TotalInstr() uint64 { return p.instr }

// StackDropped returns the lines the capped profiling stack evicted
// (cold-attribution above the cap is approximate when nonzero).
func (p *Profiler) StackDropped() uint64 { return p.stack.Dropped() }

var _ mem.BatchSink = (*Profiler)(nil)
