package affinity

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// MechConfig dimensions one 2-way splitting mechanism. The paper's
// defaults (§3.2, §4.1, §4.2) are captured by the constructors below.
type MechConfig struct {
	// WindowSize is |R|, the R-window FIFO depth. Must be a power of two
	// >= 2 (the paper uses 64, 100 and 128; non-powers of two are
	// accepted too, the power-of-two requirement is only for the AR
	// width rule, which rounds up).
	WindowSize int
	// AffinityBits is the width of Oe and Ie (paper: 16).
	AffinityBits uint
	// FilterBits is the width of the transition filter F
	// (paper: 20 bits for the §4.1 experiments, 18 for Table 2).
	FilterBits uint
	// ExactWindow keeps R-window entries distinct, as in the paper's
	// idealised definition: re-referencing a line inside the window
	// removes its old entry before pushing the new one (an associative
	// search the paper relaxes to a plain FIFO for hardware, §3.2).
	// Default false = FIFO with duplicates, the simulated configuration.
	// Exists for the ablation bench.
	ExactWindow bool
}

// Validate reports whether the configuration is usable.
func (c MechConfig) Validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("affinity: window size %d < 2", c.WindowSize)
	}
	if c.AffinityBits < 2 || c.AffinityBits > 32 {
		return fmt.Errorf("affinity: affinity bits %d out of [2,32]", c.AffinityBits)
	}
	if c.FilterBits < c.AffinityBits || c.FilterBits > 40 {
		return fmt.Errorf("affinity: filter bits %d out of [%d,40]", c.FilterBits, c.AffinityBits)
	}
	return nil
}

// winEntry is one R-window slot: a line address and its Ie value, written
// when the line entered the window.
type winEntry struct {
	line mem.Line
	ie   int64
}

// Mechanism is the practical 2-way working-set splitter of Figure 2.
//
// Per reference to line e it performs, in order (time t is the state
// before the reference):
//
//	Oe ← table[e]          (miss ⇒ Oe := ∆, forcing Ae = 0)
//	Ae ← Oe − ∆            (the affinity of e at time t)
//	Ie ← Oe − 2∆
//	push (e, Ie); pop (f, If)
//	Of ← If + 2∆ ; table[f] ← Of
//	reg ← reg + Oe − Of
//	∆  ← ∆ + sign(reg + |R|·∆)
//	F  ← F + Ae            (only when the caller asks — L2 filtering)
//
// All additions saturate at the configured widths. The R-window is a
// plain FIFO, so duplicate entries for one line are possible; this is the
// relaxation the paper adopts for hardware (§3.2, "Postponed update").
//
// Reproduction note: the paper's Figure 2 shows the AR register updated
// as AR += Oe − Of and the sign taken directly from it. That register
// telescopes to Σ_{g∈R} Ig, whereas Definition 1's AR(t) = Σ_{g∈R} Ag(t)
// equals Σ Ig + |R|·∆(t) under the postponed-update identities
// (Ag = Ig + ∆ for g ∈ R). Taking the sign of the bare register does NOT
// reproduce the paper's Figure 3: the Circular split then freezes into
// ~|R|-wide bands (≈36 sign boundaries for N=4000, |R|=100) instead of
// the optimal 2. Adding the |R|·∆ correction — a shift-and-add in
// hardware — reproduces Figure 3 exactly (2 boundaries at t=100k and
// t=1000k, transition frequency 1/2000). We therefore take
// sign(reg + |R|·∆), which is the faithful implementation of
// Definition 1, and document the Figure-2 discrepancy here and in
// DESIGN.md.
type Mechanism struct {
	cfg   MechConfig // not checkpointed: configuration; states restore into identically configured mechanisms
	table Table      // not checkpointed: shared table, checkpointed separately via CaptureTableState

	win  []winEntry
	head int  // next slot to overwrite (oldest entry)
	full bool // window has wrapped at least once

	ar, delta, filter int64

	satVal, satAR, satDelta, satFilter Sat // not checkpointed: derived from cfg at construction

	// Refs counts references processed by this mechanism.
	Refs uint64
}

// NewMechanism builds a mechanism over the given shared table.
func NewMechanism(cfg MechConfig, table Table) *Mechanism {
	if err := cfg.Validate(); err != nil {
		//emlint:allowpanic configurations are Validated by migration.NewPolicy and the front ends first
		panic(err)
	}
	if table == nil {
		//emlint:allowpanic a nil table is a wiring bug, not user input
		panic("affinity: nil table")
	}
	logR := uint(bits.Len(uint(cfg.WindowSize - 1))) // ceil(log2 |R|)
	return &Mechanism{
		cfg:       cfg,
		table:     table,
		win:       make([]winEntry, 0, cfg.WindowSize),
		satVal:    SatBits(cfg.AffinityBits),
		satAR:     SatBits(cfg.AffinityBits + logR),
		satDelta:  SatBits(cfg.AffinityBits + 1),
		satFilter: SatBits(cfg.FilterBits),
	}
}

// Config returns the mechanism's configuration.
func (m *Mechanism) Config() MechConfig { return m.cfg }

// Ref processes a reference to line e. When updateFilter is true the
// transition filter accumulates Ae (with L2 filtering — §3.4 — the caller
// passes true only on L2 misses). It returns Ae, the affinity of e at the
// time of the reference.
func (m *Mechanism) Ref(e mem.Line, updateFilter bool) (ae int64) {
	m.Refs++

	if m.cfg.ExactWindow {
		// Idealised distinct-entry window: a re-reference of an
		// in-window line moves its entry (keeping Ie — the line never
		// left R, so Ie is still exact) to the newest position. AR and
		// window membership are unchanged; only ∆ and the filter move.
		if idx := m.findNewest(e); idx >= 0 {
			ent := m.win[idx]
			copy(m.win[idx:], m.win[idx+1:])
			m.win[len(m.win)-1] = ent
			ae = m.satVal.Clamp(ent.ie + m.delta)
			m.delta = m.satDelta.Add(m.delta, Sign(m.trueAR()))
			if updateFilter {
				m.filter = m.satFilter.Add(m.filter, ae)
			}
			return ae
		}
	}

	oe, ok := m.table.Lookup(e)
	if !ok {
		// First touch (or affinity-cache miss): force Ae = 0 by setting
		// Oe = ∆ (§4.2: "Upon a miss for line e in the affinity cache,
		// we force Ae = 0 by setting Oe = ∆").
		oe = m.satVal.Clamp(m.delta)
	}
	ae = m.satVal.Clamp(oe - m.delta)
	ie := m.satVal.Clamp(oe - 2*m.delta)

	if !m.full {
		// Window still filling: push without popping. The register
		// tracks Σ Ie over the occupants (Definition 1's AR is then
		// reg + occupancy·∆; see trueAR) — accumulating Oe here instead
		// would bake a 2·Σ∆ bias into AR forever.
		m.win = append(m.win, winEntry{line: e, ie: ie})
		if len(m.win) == m.cfg.WindowSize {
			m.full = true
		}
		m.ar = m.satAR.Add(m.ar, ie)
	} else {
		var f winEntry
		if m.cfg.ExactWindow {
			// append-ordered window: oldest at index 0
			f = m.win[0]
			copy(m.win, m.win[1:])
			m.win[len(m.win)-1] = winEntry{line: e, ie: ie}
		} else {
			f = m.win[m.head]
			m.win[m.head] = winEntry{line: e, ie: ie}
			m.head++
			if m.head == m.cfg.WindowSize {
				m.head = 0
			}
		}
		of := m.satVal.Clamp(f.ie + 2*m.delta)
		m.table.Store(f.line, of)
		m.ar = m.satAR.Add(m.ar, oe-of)
	}

	m.delta = m.satDelta.Add(m.delta, Sign(m.trueAR()))

	if updateFilter {
		m.filter = m.satFilter.Add(m.filter, ae)
	}
	return ae
}

// findNewest returns the slice index of line e's newest window entry, or
// -1. Used only in ExactWindow mode, where the window is append-ordered.
func (m *Mechanism) findNewest(e mem.Line) int {
	for i := len(m.win) - 1; i >= 0; i-- {
		if m.win[i].line == e {
			return i
		}
	}
	return -1
}

// UpdateFilter accumulates a previously computed Ae into the transition
// filter. It exists so callers that decide about filtering after the
// affinity update (e.g. the machine model, which learns about the L2 miss
// after probing) can split Ref(e, false) + UpdateFilter(ae).
func (m *Mechanism) UpdateFilter(ae int64) {
	m.filter = m.satFilter.Add(m.filter, ae)
}

// Side returns the subset the transition filter currently designates:
// +1 or −1 (sign of F, §3.4).
func (m *Mechanism) Side() int64 { return Sign(m.filter) }

// Filter returns the raw transition-filter value (for instrumentation).
func (m *Mechanism) Filter() int64 { return m.filter }

// FilterFraction returns |F| relative to the filter's saturation level,
// in [0, 1]. A small value means the filter is near a sign change — the
// signal §6 proposes for gating register broadcasts on the update bus.
func (m *Mechanism) FilterFraction() float64 {
	f := m.filter
	if f < 0 {
		f = -f
	}
	return float64(f) / float64(m.satFilter.Max)
}

// Delta returns the current ∆ register (for instrumentation).
func (m *Mechanism) Delta() int64 { return m.delta }

// trueAR returns Definition 1's AR(t) = Σ_{g∈R} Ag(t), reconstructed
// from the incrementally maintained register (Σ Ig) plus the |R|·∆
// correction (each in-window element's affinity is Ig + ∆). During
// warm-up the correction uses the current occupancy.
func (m *Mechanism) trueAR() int64 {
	occ := m.cfg.WindowSize
	if !m.full {
		occ = len(m.win)
	}
	return m.ar + int64(occ)*m.delta
}

// AR returns the R-window total affinity AR(t) per Definition 1 (the
// quantity whose sign drives the feedback).
func (m *Mechanism) AR() int64 { return m.trueAR() }

// AffinityOf reconstructs the current affinity Ae of a line from the
// table (Ae = Oe − ∆). Lines currently inside the R-window report the
// value captured at entry (Ie + ∆), matching the postponed-update
// semantics. Lines never seen report 0. This is an instrumentation
// helper used to draw Figure 3; the hardware never needs it.
func (m *Mechanism) AffinityOf(e mem.Line) int64 {
	// Prefer the freshest window entry (scan from newest to oldest).
	n := len(m.win)
	for i := 1; i <= n; i++ {
		idx := m.head - i
		if idx < 0 {
			idx += n
		}
		if m.win[idx].line == e {
			return m.satVal.Clamp(m.win[idx].ie + m.delta)
		}
	}
	if oe, ok := m.table.Lookup(e); ok {
		return m.satVal.Clamp(oe - m.delta)
	}
	return 0
}

// Reset clears all state (window, registers, filter) but keeps the table.
func (m *Mechanism) Reset() {
	m.win = m.win[:0]
	m.head = 0
	m.full = false
	m.ar, m.delta, m.filter = 0, 0, 0
	m.Refs = 0
}
