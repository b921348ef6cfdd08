package machine

import "repro/internal/mem"

// The event kernel. AccessBatch consumes a mem.Batch in one call,
// keeping the L1 probe and the per-record statistics in a tight loop
// with local accumulators that are folded into Stats once per batch.
// Only L1 misses drop into the branchy request/migration slow path.
// Access and Instr are one-record forwards into it, so the machine has
// exactly one definition of what an event does; TestAccessBatchMatchesScalar
// pins it against the record-at-a-time reference model kept in the
// tests.
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

// Access implements mem.Sink: one access record through AccessBatch.
//
//emlint:hotpath
func (m *Machine) Access(addr mem.Addr, kind mem.Kind) { m.AccessBatch(m.rec.Access(addr, kind)) }

// Instr implements mem.Sink: one instruction record through AccessBatch.
//
//emlint:hotpath
func (m *Machine) Instr(n uint64) { m.AccessBatch(m.rec.Instr(n)) }

// AccessBatch implements mem.BatchSink. It delivers every record of b
// in order and must stay allocation-free in steady state (see
// TestAccessBatchSteadyStateZeroAllocs).
//
//emlint:hotpath
func (m *Machine) AccessBatch(b *mem.Batch) {
	kinds := b.Kind
	addrs := b.Addr
	if len(addrs) != len(kinds) {
		raggedBatch()
	}
	il1, dl1 := m.il1, m.dl1
	shift := m.cfg.LineShift
	migration := m.cfg.Migration != nil
	var refs, fetches, loads, stores, instrs, busBytes uint64
	for i, k := range kinds {
		if k == mem.KindInstr {
			n := uint64(addrs[i])
			instrs += n
			if migration {
				if m.cfg.BroadcastThreshold > 0 && !m.polNearMigration(m.cfg.BroadcastThreshold) {
					m.Stats.SuppressedRegBytes += 9 * n
				} else {
					busBytes += 9 * n
				}
			}
			continue
		}
		refs++
		line := mem.LineOf(addrs[i], shift)
		switch mem.Kind(k) {
		case mem.IFetch:
			fetches++
			if _, ok := il1.Probe(line); ok {
				continue
			}
			m.Stats.IL1Misses++
			m.request(line, false, false)
			m.fillL1(il1, line)
		case mem.Load, mem.PtrLoad:
			loads++
			if _, ok := dl1.Probe(line); ok {
				continue
			}
			m.Stats.DL1Misses++
			m.request(line, false, mem.Kind(k) == mem.PtrLoad)
			m.fillL1(dl1, line)
		case mem.Store:
			stores++
			if migration {
				busBytes += 16
			}
			if _, ok := dl1.Probe(line); ok {
				// DL1 hit: write-through to the active L2 without an
				// L1-miss request (invisible to the controller).
				m.storeThrough(line)
				continue
			}
			// DL1 miss: non-write-allocate — no DL1 fill, but the store
			// is an L1-miss request serviced by the L2.
			m.Stats.DL1Misses++
			m.request(line, true, false)
		}
	}
	m.Stats.IFetches += fetches
	m.Stats.Loads += loads
	m.Stats.Stores += stores
	m.Stats.Instructions += instrs
	m.Stats.UpdateBusBytes += busBytes
	m.refs.Add(refs)
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

var _ mem.BatchSink = (*Machine)(nil)
