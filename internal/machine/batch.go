package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// The event kernel. L1 content is mirrored across cores (§2.3) and
// depends on nothing but the reference stream, so machines that see
// one stream through the same L1 geometry can share one physical
// IL1/DL1: a Group. Its AccessBatch is the machine's one event kernel —
// a standalone Machine is a group of one — and it consumes a mem.Batch
// in one call, keeping the L1 probe and the per-record statistics in a
// tight loop with local accumulators that are folded into every
// member's Stats once per batch. Each L1 probe and fill happens once
// per record; each L1 miss, DL1-hit store and instruction record fans
// out to every member's L2 side in member order. Access and Instr are
// one-record forwards into the kernel, so there is exactly one
// definition of what an event does; TestAccessBatchMatchesScalar pins
// it against the record-at-a-time reference model kept in the tests,
// and TestOracle against an independent model of the paper's machine.
//
// Semantics the reference comparison relies on:
//   - Accumulating counters is observationally safe because telemetry
//     snapshots, timeline ticks and checkpoints only read the counters
//     between sink calls — never inside one — and batch producers align
//     flushes to those boundaries.
//   - NearMigration is evaluated per instruction record, in stream
//     order: the register-update suppression window depends on the
//     controller state at that point of the stream.
//   - Unknown kind tags count a reference and nothing else.
//   - Members share nothing but the L1s, and no member's L2 side reads
//     or writes them, so interleaving the members per record leaves
//     each in the state its own pass over the stream would.

// Group is machines driven by one L1 front end. Every member sees every
// event; driving any member (Access, Instr, AccessBatch) drives the
// whole group, so a group's members are never fed separately — build
// unshared machines with New for that.
type Group struct {
	il1, dl1 *cache.SetAssoc
	shift    uint
	ms       []*Machine
	// gated lists the members whose §6 broadcast threshold decides per
	// instruction record whether register updates go on the bus.
	gated []*Machine
	rec   mem.Record
}

// NewGroup builds one machine per configuration over a single shared
// IL1/DL1 pair. The configurations must agree on the L1 geometries and
// the line size; the members are returned by Machines in argument
// order.
func NewGroup(cfgs ...Config) (*Group, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("machine: a group needs at least one machine")
	}
	c0 := cfgs[0]
	if err := c0.Validate(); err != nil {
		return nil, err
	}
	g := &Group{il1: cache.NewSetAssoc(c0.IL1), dl1: cache.NewSetAssoc(c0.DL1), shift: c0.LineShift}
	for i, cfg := range cfgs {
		if cfg.IL1 != c0.IL1 || cfg.DL1 != c0.DL1 || cfg.LineShift != c0.LineShift {
			return nil, fmt.Errorf("machine: group member %d has a different L1 front end (IL1, DL1 or line size) than member 0", i)
		}
		m, err := newMachine(cfg, g)
		if err != nil {
			return nil, err
		}
		g.ms = append(g.ms, m)
		if cfg.Migration != nil && cfg.BroadcastThreshold > 0 {
			g.gated = append(g.gated, m)
		}
	}
	return g, nil
}

// Machines returns the members in construction order.
func (g *Group) Machines() []*Machine { return g.ms }

// Access implements mem.Sink: one access record through AccessBatch.
//
//emlint:hotpath
func (g *Group) Access(addr mem.Addr, kind mem.Kind) { g.AccessBatch(g.rec.Access(addr, kind)) }

// Instr implements mem.Sink: one instruction record through AccessBatch.
//
//emlint:hotpath
func (g *Group) Instr(n uint64) { g.AccessBatch(g.rec.Instr(n)) }

// Access implements mem.Sink, driving the machine's group.
//
//emlint:hotpath
func (m *Machine) Access(addr mem.Addr, kind mem.Kind) { m.grp.Access(addr, kind) }

// Instr implements mem.Sink, driving the machine's group.
//
//emlint:hotpath
func (m *Machine) Instr(n uint64) { m.grp.Instr(n) }

// AccessBatch implements mem.BatchSink, driving the machine's group.
//
//emlint:hotpath
func (m *Machine) AccessBatch(b *mem.Batch) { m.grp.AccessBatch(b) }

// AccessBatch implements mem.BatchSink. It delivers every record of b
// in order to every member and must stay allocation-free in steady
// state (see TestAccessBatchSteadyStateZeroAllocs).
//
//emlint:hotpath
func (g *Group) AccessBatch(b *mem.Batch) {
	kinds := b.Kind
	addrs := b.Addr
	if len(addrs) != len(kinds) {
		raggedBatch()
	}
	il1, dl1 := g.il1, g.dl1
	shift := g.shift
	ms := g.ms
	var c batchCounts
	for i, k := range kinds {
		if k == mem.KindInstr {
			n := uint64(addrs[i])
			c.instrs += n
			for _, m := range g.gated {
				m.gateRegisters(n)
			}
			continue
		}
		c.refs++
		line := mem.LineOf(addrs[i], shift)
		switch mem.Kind(k) {
		case mem.IFetch:
			c.fetches++
			if _, ok := il1.Probe(line); ok {
				continue
			}
			c.il1Misses++
			for _, m := range ms {
				m.request(line, false, false)
			}
			// The L2 sides never touch the L1s, so the probe's recorded
			// victim is still the insertion frame.
			il1.InsertProbed(line, 0)
		case mem.Load, mem.PtrLoad:
			c.loads++
			if _, ok := dl1.Probe(line); ok {
				continue
			}
			c.dl1Misses++
			c.dl1Fills++
			ptr := mem.Kind(k) == mem.PtrLoad
			for _, m := range ms {
				m.request(line, false, ptr)
			}
			dl1.InsertProbed(line, 0)
		case mem.Store:
			c.stores++
			if _, ok := dl1.Probe(line); ok {
				// DL1 hit: write-through to the active L2 without an
				// L1-miss request (invisible to the controller).
				for _, m := range ms {
					m.storeThrough(line)
				}
				continue
			}
			// DL1 miss: non-write-allocate — no DL1 fill, but the store
			// is an L1-miss request serviced by the L2.
			c.dl1Misses++
			for _, m := range ms {
				m.request(line, true, false)
			}
		}
	}
	for _, m := range ms {
		m.fold(&c)
	}
}

// batchCounts are one batch's per-record counts, identical for every
// member of a group.
type batchCounts struct {
	refs, fetches, loads, stores, instrs uint64
	il1Misses, dl1Misses, dl1Fills       uint64
}

// fold adds one batch's counts into the machine's Stats. The
// migration-mode bus accounting follows from them: every L1 fill is
// broadcast to the inactive L1 copies (§2.3), every store costs 16
// bytes of update bus, and each instruction 9 — unless the §6 threshold
// gates register updates, which gateRegisters accounts per record.
//
//emlint:hotpath
func (m *Machine) fold(c *batchCounts) {
	s := &m.Stats
	s.IFetches += c.fetches
	s.Loads += c.loads
	s.Stores += c.stores
	s.Instructions += c.instrs
	s.IL1Misses += c.il1Misses
	s.DL1Misses += c.dl1Misses
	if m.cfg.Migration != nil {
		fills := c.il1Misses + c.dl1Fills
		s.L1BroadcastBytes += fills * (uint64(m.cfg.Cores-1) << m.cfg.LineShift)
		s.UpdateBusBytes += 16 * c.stores
		if m.cfg.BroadcastThreshold <= 0 {
			s.UpdateBusBytes += 9 * c.instrs
		}
	}
	m.refs.Add(c.refs)
}

// gateRegisters accounts one instruction record's register updates
// under §6's broadcast threshold: on the bus while a migration is near,
// suppressed otherwise.
//
//emlint:hotpath
func (m *Machine) gateRegisters(n uint64) {
	if m.polNearMigration(m.cfg.BroadcastThreshold) {
		m.Stats.UpdateBusBytes += 9 * n
	} else {
		m.Stats.SuppressedRegBytes += 9 * n
	}
}

// raggedBatch reports a violated Batch invariant. Kept out of the
// AccessBatch body so the hot loop stays free of the interface boxing a
// panic argument implies.
//
//emlint:coldpath terminal: only reached on a programming error
func raggedBatch() {
	//emlint:allowpanic Batch invariant: parallel columns always have equal length
	panic("machine: ragged batch")
}

var (
	_ mem.BatchSink = (*Machine)(nil)
	_ mem.BatchSink = (*Group)(nil)
)
