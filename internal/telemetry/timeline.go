package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Timeline samples every metric of a registry at a fixed event interval
// into a preallocated ring of samples. The run engine (run.Stream)
// calls MaybeSample at its boundary events, not per event; a boundary
// that is not a multiple of the interval (a checkpoint's, say) costs a
// single modulo-and-compare, and a sample copies values into a
// preallocated slot without allocating — until the ring is full, at
// which point it doubles (an amortised cold path, like every growth
// path in the simulator).
//
// Growth is bounded: at the row limit the ring stops doubling and drops
// its oldest row per new sample instead (the same hard-cap convention
// as the lrustack and affinity-table caps), counting the drops so the
// output can account for the missing prefix — a long run with a small
// -interval degrades to a sliding window over the most recent samples
// rather than growing without bound.
//
// A Timeline belongs to the goroutine driving its registry. Parallel
// passes each own a timeline; their rows merge deterministically with
// MergeRows.
type Timeline struct {
	reg      *Registry
	interval uint64

	names     []string // counter set frozen at creation
	histNames []string

	samples []Sample
	n       int
	limit   int    // hard row cap; the ring never grows past it
	dropped uint64 // oldest rows evicted after hitting the cap
}

// Sample is one timeline point: the cumulative metric values after
// `Events` sink events. Counters and Hists are parallel to the
// timeline's frozen name sets.
type Sample struct {
	Events   uint64
	Counters []uint64
	Hists    [][]uint64
}

// DefaultTimelineLimit is the hard row cap NewTimeline applies: 64Ki
// rows (tens of MB at typical metric counts) is far beyond any plotted
// timeline, while a pathological events/interval ratio can no longer
// grow the ring without bound.
const DefaultTimelineLimit = 1 << 16

// NewTimeline builds a timeline over reg sampling every interval
// events, with room for capacity samples before the ring grows, capped
// at DefaultTimelineLimit rows. The metric set is frozen at creation:
// counters registered later are not sampled. interval must be positive
// and capacity at least 1.
func NewTimeline(reg *Registry, interval uint64, capacity int) (*Timeline, error) {
	return NewTimelineLimited(reg, interval, capacity, DefaultTimelineLimit)
}

// NewTimelineLimited is NewTimeline with an explicit hard row cap: once
// limit rows are held, each new sample evicts the oldest row (counted
// in Dropped). limit < 1 selects DefaultTimelineLimit.
func NewTimelineLimited(reg *Registry, interval uint64, capacity, limit int) (*Timeline, error) {
	if interval == 0 {
		return nil, fmt.Errorf("telemetry: timeline interval must be positive")
	}
	if limit < 1 {
		limit = DefaultTimelineLimit
	}
	if capacity < 1 {
		capacity = 1
	}
	if capacity > limit {
		capacity = limit
	}
	t := &Timeline{
		reg:       reg,
		interval:  interval,
		names:     reg.CounterNames(),
		histNames: reg.HistogramNames(),
		limit:     limit,
	}
	t.samples = make([]Sample, capacity)
	for i := range t.samples {
		t.preallocate(&t.samples[i])
	}
	return t, nil
}

// preallocate sizes one ring slot for the frozen metric set.
func (t *Timeline) preallocate(s *Sample) {
	s.Counters = make([]uint64, len(t.names))
	s.Hists = make([][]uint64, len(t.histNames))
	for i := range s.Hists {
		s.Hists[i] = make([]uint64, HistBuckets)
	}
}

// Interval returns the sampling interval in events.
func (t *Timeline) Interval() uint64 { return t.interval }

// MaybeSample records a sample when events is a multiple of the
// interval. The run engine calls it at each boundary event; any other
// events value returns after one compare.
func (t *Timeline) MaybeSample(events uint64) {
	if events == 0 || events%t.interval != 0 {
		return
	}
	if t.n == len(t.samples) {
		if len(t.samples) < t.limit {
			// Ring full below the cap: double, clamped to the cap
			// (cold, amortised over interval events).
			size := 2 * len(t.samples)
			if size > t.limit {
				size = t.limit
			}
			grown := make([]Sample, size)
			copy(grown, t.samples)
			for i := len(t.samples); i < len(grown); i++ {
				t.preallocate(&grown[i])
			}
			t.samples = grown
		} else {
			// At the cap: evict the oldest row, recycling its
			// preallocated slot to the tail (no allocation; O(limit)
			// pointer moves once per interval events).
			first := t.samples[0]
			copy(t.samples, t.samples[1:])
			t.samples[len(t.samples)-1] = first
			t.n--
			t.dropped++
		}
	}
	s := &t.samples[t.n]
	s.Events = events
	for i := range t.names {
		s.Counters[i] = *t.reg.vals[i]
	}
	for i := range t.histNames {
		copy(s.Hists[i], t.reg.hists[i][:])
	}
	t.n++
}

// Len returns the number of samples currently held.
func (t *Timeline) Len() int { return t.n }

// Dropped returns how many oldest rows the cap evicted; the retained
// rows are the most recent Len() samples.
func (t *Timeline) Dropped() uint64 { return t.dropped }

// Row is the JSONL form of one sample of one machine's timeline.
// encoding/json sorts map keys, so a row marshals to identical bytes
// for identical metric values regardless of construction order.
type Row struct {
	Machine  string              `json:"machine"`
	Interval int                 `json:"interval"`
	Events   uint64              `json:"events"`
	Counters map[string]uint64   `json:"counters"`
	Hists    map[string][]uint64 `json:"hists,omitempty"`
}

// Rows converts the recorded samples into JSONL rows labelled with the
// machine name. Interval numbers samples in recording order from the
// drop count, so a capped timeline's surviving rows keep their original
// interval numbers (a gap at the start marks the evicted prefix).
// Histogram buckets are trimmed of trailing zeros; all-zero histograms
// are omitted.
func (t *Timeline) Rows(machine string) []Row {
	rows := make([]Row, t.n)
	for i := 0; i < t.n; i++ {
		s := &t.samples[i]
		counters := make(map[string]uint64, len(t.names))
		for j, n := range t.names {
			counters[n] = s.Counters[j]
		}
		var hists map[string][]uint64
		for j, n := range t.histNames {
			trimmed := trimTrailingZeros(s.Hists[j])
			if len(trimmed) == 0 {
				continue
			}
			if hists == nil {
				hists = make(map[string][]uint64, len(t.histNames))
			}
			hists[n] = trimmed
		}
		rows[i] = Row{
			Machine:  machine,
			Interval: int(t.dropped) + i,
			Events:   s.Events,
			Counters: counters,
			Hists:    hists,
		}
	}
	return rows
}

// MergeRows interleaves several machines' row sets into one
// deterministic stream: ascending interval, and within an interval the
// order the row sets were passed in: the order a pass that samples
// every machine at each boundary produces.
func MergeRows(rowsets ...[]Row) []Row {
	maxLen := 0
	total := 0
	for _, rs := range rowsets {
		if len(rs) > maxLen {
			maxLen = len(rs)
		}
		total += len(rs)
	}
	out := make([]Row, 0, total)
	for i := 0; i < maxLen; i++ {
		for _, rs := range rowsets {
			if i < len(rs) {
				out = append(out, rs[i])
			}
		}
	}
	return out
}

// Footer is the trailing accounting line of a capped timeline's JSONL:
// it has no "machine" key, so row consumers can distinguish it, and it
// only appears when rows were actually dropped (an uncapped run's
// output is byte-identical to the pre-cap format).
type Footer struct {
	DroppedRows uint64 `json:"dropped_rows"`
	KeptRows    int    `json:"kept_rows"`
}

// WriteJSONLWithFooter writes one JSON object per line for each row,
// then a Footer line when dropped is nonzero.
func WriteJSONLWithFooter(w io.Writer, rows []Row, dropped uint64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return fmt.Errorf("telemetry: encoding timeline row %d: %w", i, err)
		}
	}
	if dropped > 0 {
		if err := enc.Encode(Footer{DroppedRows: dropped, KeptRows: len(rows)}); err != nil {
			return fmt.Errorf("telemetry: encoding timeline footer: %w", err)
		}
	}
	return bw.Flush()
}
