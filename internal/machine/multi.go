package machine

// Multiprogrammed co-scheduling: K programs contending for the same
// per-core L2s. The paper runs one sequential program over otherwise
// idle cores; a real chip time-shares. A Cluster builds one Machine per
// program — private L1s, private migration policy and affinity state,
// private Stats — but aliases every program onto one shared set of L2
// arrays (and the shared L3, when configured), so cache contention
// emerges naturally from interleaved insertions rather than from an
// analytical model.
//
// Scheduling is a deterministic round robin with a quantum of one
// record batch: each turn consumes exactly one batch from every live
// program, in program order. Producers run concurrently (one goroutine
// per feed, pumping owned batch copies through an unbuffered channel)
// but the coordinator alone touches the machines and imposes the total
// order, so a multiprogram run is a pure function of its feeds — the
// property the determinism tests pin across -j worker counts.
//
// Programs are kept in disjoint address spaces by ProgramOffset (a
// per-program high-bit base, the trace-driven analogue of an ASID):
// identical workloads on two programs still compete for L2 frames via
// set indexing, but never alias the same lines, and the affinity
// isolation tests can attribute every table entry to its owner.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/mem"
)

// programOffsetShift places each program's address space 2^40 bytes
// apart — far above any workload's footprint, well below mem.Addr's
// 64-bit range for any plausible program count.
const programOffsetShift = 40

// ProgramOffset returns program p's address-space base. Program 0 runs
// unshifted, so a 1-program cluster reproduces a plain machine's
// stream exactly.
func ProgramOffset(p int) mem.Addr { return mem.Addr(uint64(p) << programOffsetShift) }

// Cluster is K program contexts sharing one set of L2s.
type Cluster struct {
	cfg      Config
	programs []*Machine
}

// NewCluster builds k programs over a shared L2 (and L3) complex. Every
// program gets its own Machine built from cfg; programs beyond the
// first alias their L2 arrays, the modified-owner index over them and
// the L3 onto program 0's.
func NewCluster(cfg Config, k int) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("machine: cluster needs at least one program, got %d", k)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < k; i++ {
		m, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("machine: program %d: %w", i, err)
		}
		if i > 0 {
			m.l2 = c.programs[0].l2
			m.own = c.programs[0].own
			m.l3 = c.programs[0].l3
		}
		c.programs = append(c.programs, m)
	}
	return c, nil
}

// Programs returns the program count.
func (c *Cluster) Programs() int { return len(c.programs) }

// Program returns program p's machine: its private stats, policy and
// telemetry. The L2 state it exposes is the shared complex.
func (c *Cluster) Program(p int) *Machine { return c.programs[p] }

// Totals returns the cluster-wide event counts: the field-wise sum of
// every program's FinalStats.
func (c *Cluster) Totals() Stats {
	var t Stats
	for _, m := range c.programs {
		t = AddStats(t, m.FinalStats())
	}
	return t
}

// AddStats returns the field-wise sum a+b. Stats is uniformly uint64,
// so the sum is computed reflectively and new fields are aggregated
// automatically instead of silently dropped.
func AddStats(a, b Stats) Stats {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}

// Feed produces one program's reference stream into the sink: scalar
// Access/Instr calls, AccessBatch deliveries, or a mix. The sink
// buffers scalar records into batches internally; the feed must simply
// return when its stream ends.
type Feed func(sink mem.BatchSink) error

// Run drives the cluster to completion: one feed per program, round
// robin, one batch per program per turn. Feeds run concurrently but
// delivery order is deterministic (see the package comment). A feed
// error aborts nothing — remaining programs run to completion so the
// machines stay consistent — and all feed errors come back joined.
func (c *Cluster) Run(feeds []Feed) error {
	if len(feeds) != len(c.programs) {
		return fmt.Errorf("machine: %d feeds for %d programs", len(feeds), len(c.programs))
	}
	chans := make([]chan *mem.Batch, len(feeds))
	errs := make([]error, len(feeds))
	var wg sync.WaitGroup
	for i, f := range feeds {
		ch := make(chan *mem.Batch)
		chans[i] = ch
		wg.Add(1)
		go func(i int, f Feed) {
			defer wg.Done()
			defer close(ch)
			s := newFeedSink(ch)
			if err := f(s); err != nil {
				errs[i] = fmt.Errorf("machine: program %d feed: %w", i, err)
				return
			}
			s.Flush()
		}(i, f)
	}
	live := len(chans)
	open := make([]bool, len(chans))
	for i := range open {
		open[i] = true
	}
	for live > 0 {
		for p, ch := range chans {
			if !open[p] {
				continue
			}
			b, ok := <-ch
			if !ok {
				open[p] = false
				live--
				continue
			}
			c.apply(p, b)
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

// apply rebases program p's access records into its private address
// space and delivers the batch to its machine. Instruction records
// carry counts, not addresses, and are never rebased.
func (c *Cluster) apply(p int, b *mem.Batch) {
	if off := ProgramOffset(p); off != 0 {
		for i, k := range b.Kind {
			if k != mem.KindInstr {
				b.Addr[i] += off
			}
		}
	}
	c.programs[p].AccessBatch(b)
}

// feedSink is one producer goroutine's end of the coordinator's
// channel: every batch is copied into one of two alternating buffers the
// sink owns and handed over. Double buffering is sufficient because the
// channel is unbuffered and the coordinator fully applies a batch before
// its next receive on the same channel: when the send of buffer B
// unblocks, buffer A is already consumed. Run wraps it in a mem.Batcher,
// which accumulates a feed's scalar records into batches.
type feedSink struct {
	ch   chan<- *mem.Batch
	bufs [2]*mem.Batch
	cur  int
}

func newFeedSink(ch chan<- *mem.Batch) *mem.Batcher {
	return mem.NewBatcher(&feedSink{ch: ch, bufs: [2]*mem.Batch{mem.NewBatch(0), mem.NewBatch(0)}}, 0)
}

// AccessBatch copies b into an owned buffer and hands it to the
// coordinator.
func (s *feedSink) AccessBatch(b *mem.Batch) {
	if b.Len() == 0 {
		return
	}
	buf := s.bufs[s.cur]
	s.cur ^= 1
	buf.Addr = append(buf.Addr[:0], b.Addr...)
	buf.Kind = append(buf.Kind[:0], b.Kind...)
	s.ch <- buf
}
