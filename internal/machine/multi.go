package machine

// Multiprogrammed co-scheduling: K programs contending for the same
// per-core L2s. The paper runs one sequential program over otherwise
// idle cores; a real chip time-shares. A Cluster builds one Machine per
// program — private L1s, private migration policy and affinity state,
// private Stats — but aliases every program onto one shared set of L2
// arrays, so cache contention emerges naturally from interleaved
// insertions rather than from an analytical model.
//
// Scheduling is a deterministic round robin with a quantum of one
// record batch: each turn consumes exactly one batch from every live
// program, in program order. Producers run concurrently (one goroutine
// per feed, handing owned batch copies over through a mem.Stage) but
// the coordinator alone touches the machines and imposes the total
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

// NewCluster builds k programs over a shared L2 complex. Every program
// gets its own Machine built from cfg; programs beyond the first alias
// their L2 arrays and the modified-owner index over them onto program
// 0's.
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
// robin, one batch per program per turn. Feeds run concurrently, each
// on a mem.Stage of depth 1, but delivery order is deterministic (see
// the package comment); an empty batch takes no turn. A feed error
// aborts nothing — remaining programs run to completion so the machines
// stay consistent — and all feed errors come back joined. A feed that
// returns early (an error, or a stream its context stopped) ends its
// stage; Run keeps reading every other stage until its feed has
// returned, so no producer is left blocked on a send.
func (c *Cluster) Run(feeds []Feed) (err error) {
	if len(feeds) != len(c.programs) {
		return fmt.Errorf("machine: %d feeds for %d programs", len(feeds), len(c.programs))
	}
	stages := make([]*mem.Stage, len(feeds))
	for i, f := range feeds {
		stages[i] = mem.NewStage(1, f)
	}
	// Closing every stage reaps every producer, also when a feed's
	// panic re-raises here.
	defer func() {
		errs := make([]error, len(stages))
		for i, st := range stages {
			if e := st.Close(); e != nil {
				errs[i] = fmt.Errorf("machine: program %d feed: %w", i, e)
			}
		}
		err = errors.Join(errs...)
	}()
	live := len(stages)
	open := make([]bool, len(stages))
	for i := range open {
		open[i] = true
	}
	for live > 0 {
		for p, st := range stages {
			if !open[p] {
				continue
			}
			b := st.Next()
			for b != nil && b.Len() == 0 {
				b = st.Next()
			}
			if b == nil {
				open[p] = false
				live--
				continue
			}
			c.apply(p, b)
		}
	}
	return nil
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
