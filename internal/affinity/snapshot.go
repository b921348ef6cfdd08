package affinity

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// This file gives every affinity structure a serialisable state for the
// machine checkpoint/resume path. States are captured from and restored
// into identically configured structures; configurations themselves are
// rebuilt from the run's Config, not stored here. All restores validate
// shape before mutating anything.

// WindowEntry is one serialised R-window slot.
type WindowEntry struct {
	Line mem.Line
	Ie   int64
}

// MechanismState is the serialisable state of one 2-way mechanism:
// R-window contents, registers, filter, and reference count.
type MechanismState struct {
	Win    []WindowEntry
	Head   int
	Full   bool
	AR     int64
	Delta  int64
	Filter int64
	Refs   uint64
}

// State returns a deep copy of the mechanism's state.
func (m *Mechanism) State() MechanismState {
	st := MechanismState{
		Win:    make([]WindowEntry, len(m.win)),
		Head:   m.head,
		Full:   m.full,
		AR:     m.ar,
		Delta:  m.delta,
		Filter: m.filter,
		Refs:   m.Refs,
	}
	for i, e := range m.win {
		st.Win[i] = WindowEntry{Line: e.line, Ie: e.ie}
	}
	return st
}

// SetState restores a previously captured state. The receiving mechanism
// must have the same window size as the one that produced it.
func (m *Mechanism) SetState(st MechanismState) error {
	if len(st.Win) > m.cfg.WindowSize {
		return fmt.Errorf("affinity: state window has %d entries, mechanism holds %d", len(st.Win), m.cfg.WindowSize)
	}
	if st.Full != (len(st.Win) == m.cfg.WindowSize) {
		return fmt.Errorf("affinity: state full=%v with %d of %d window entries", st.Full, len(st.Win), m.cfg.WindowSize)
	}
	// A window that has not wrapped fills from slot 0, so its oldest
	// entry is there.
	if st.Head < 0 || st.Head >= m.cfg.WindowSize || (!st.Full && st.Head != 0) {
		return fmt.Errorf("affinity: state head %d out of range", st.Head)
	}
	m.win = m.win[:0]
	for _, e := range st.Win {
		m.win = append(m.win, winEntry{line: e.Line, ie: e.Ie})
	}
	m.head = st.Head
	m.full = st.Full
	m.ar = st.AR
	m.delta = st.Delta
	m.filter = st.Filter
	m.Refs = st.Refs
	return nil
}

// TableEntry is one serialised affinity-table entry.
type TableEntry struct {
	Line mem.Line
	Oe   int64
}

// UnboundedState is the serialisable state of an Unbounded table.
// Entries are in FIFO insertion order when the table is limited (the
// order is the eviction order, so it must survive), sorted by line
// otherwise.
type UnboundedState struct {
	Entries []TableEntry
	Dropped uint64
}

// CacheState is the serialisable state of a bounded affinity Cache.
type CacheState struct {
	Ways     int
	SetsLog2 uint
	Lines    []mem.Line
	Oe       []int64
	Valid    []bool
	Age      []uint8

	Hits, Misses, Evictions uint64
}

// TableState is a tagged union over the two Table implementations, so a
// checkpoint can hold either without gob interface registration.
type TableState struct {
	Kind      string // "unbounded" or "cache"
	Unbounded *UnboundedState
	Cache     *CacheState
}

// State returns a deep copy of the table's state.
func (u *Unbounded) State() UnboundedState {
	st := UnboundedState{Dropped: u.Dropped}
	if u.limit > 0 {
		st.Entries = u.entriesInOrder()
	} else {
		st.Entries = make([]TableEntry, 0, u.Len())
		u.Range(func(line mem.Line, oe int64) bool {
			st.Entries = append(st.Entries, TableEntry{Line: line, Oe: oe})
			return true
		})
		sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Line < st.Entries[j].Line })
	}
	return st
}

// SetState restores a previously captured state, replacing the table's
// contents. The receiving table must have the same limit regime.
func (u *Unbounded) SetState(st UnboundedState) error {
	if u.limit > 0 && len(st.Entries) > u.limit {
		return fmt.Errorf("affinity: state has %d entries, table limit is %d", len(st.Entries), u.limit)
	}
	u.reset(len(st.Entries))
	for _, e := range st.Entries {
		if _, dup := u.find(e.Line); dup {
			return fmt.Errorf("affinity: state holds line %d twice", e.Line)
		}
		// Store re-establishes both the hash table and (when limited)
		// the FIFO ring; entries arrive in insertion order, so the
		// eviction order is reconstructed exactly.
		u.Store(e.Line, e.Oe)
	}
	u.Dropped = st.Dropped
	return nil
}

// State returns a deep copy of the cache's state.
func (c *Cache) State() CacheState {
	n := len(c.entries)
	st := CacheState{
		Ways:      c.ways,
		SetsLog2:  c.setsLog2,
		Lines:     make([]mem.Line, n),
		Oe:        make([]int64, n),
		Valid:     make([]bool, n),
		Age:       make([]uint8, n),
		Hits:      c.Hits,
		Misses:    c.Misses,
		Evictions: c.Evictions,
	}
	for f, e := range c.entries {
		st.Lines[f], st.Oe[f], st.Valid[f], st.Age[f] = e.line, e.oe, e.valid, e.age
	}
	return st
}

// SetState restores a previously captured state. The receiving cache
// must have the same shape, and every age must fit the 2-bit policy. A
// rejected state leaves the cache unchanged.
func (c *Cache) SetState(st CacheState) error {
	if st.Ways != c.ways || st.SetsLog2 != c.setsLog2 {
		return fmt.Errorf("affinity: state shape %d-way/2^%d sets, cache is %d-way/2^%d",
			st.Ways, st.SetsLog2, c.ways, c.setsLog2)
	}
	n := len(c.entries)
	if len(st.Lines) != n || len(st.Oe) != n || len(st.Valid) != n || len(st.Age) != n {
		return fmt.Errorf("affinity: state arrays sized %d/%d/%d/%d, want %d entries",
			len(st.Lines), len(st.Oe), len(st.Valid), len(st.Age), n)
	}
	for f, a := range st.Age {
		if a > 3 {
			return fmt.Errorf("affinity: state entry %d age %d exceeds 3", f, a)
		}
	}
	for f := range c.entries {
		c.entries[f] = entry{line: st.Lines[f], oe: st.Oe[f], age: st.Age[f], valid: st.Valid[f]}
	}
	c.Hits, c.Misses, c.Evictions = st.Hits, st.Misses, st.Evictions
	return nil
}

// CaptureTableState snapshots any known Table implementation.
func CaptureTableState(t Table) (TableState, error) {
	switch tt := t.(type) {
	case *Unbounded:
		st := tt.State()
		return TableState{Kind: "unbounded", Unbounded: &st}, nil
	case *Cache:
		st := tt.State()
		return TableState{Kind: "cache", Cache: &st}, nil
	default:
		return TableState{}, fmt.Errorf("affinity: cannot snapshot table of type %T", t)
	}
}

// RestoreTableState restores a TableState into a table of the matching
// implementation.
func RestoreTableState(t Table, st TableState) error {
	switch tt := t.(type) {
	case *Unbounded:
		if st.Kind != "unbounded" || st.Unbounded == nil {
			return fmt.Errorf("affinity: table state kind %q cannot restore into an unbounded table", st.Kind)
		}
		return tt.SetState(*st.Unbounded)
	case *Cache:
		if st.Kind != "cache" || st.Cache == nil {
			return fmt.Errorf("affinity: table state kind %q cannot restore into a bounded cache", st.Kind)
		}
		return tt.SetState(*st.Cache)
	default:
		return fmt.Errorf("affinity: cannot restore table of type %T", t)
	}
}

// SplitterState is the serialisable state of a Splitter. Mechs holds
// the per-mechanism states breadth-first: [M] for 2-way, [X, Y+, Y−]
// for 4-way, [X, Y0, Y1, Z0..Z3] for 8-way. PendingMech is the Mechs
// index of the deferred transition-filter update left by a
// Ref(e, false) call, or -1 when none is pending.
type SplitterState struct {
	Ways        int
	Mechs       []MechanismState
	Refs        uint64
	SampledOut  uint64
	Transitions uint64
	Prev        int
	Started     bool
	PendingMech int
	PendingAe   int64
}

// State returns the splitter's serialisable state for checkpoint/resume.
func (s *Splitter) State() SplitterState {
	st := SplitterState{
		Ways:        s.Ways(),
		Refs:        s.refs,
		SampledOut:  s.sampledOut,
		Transitions: s.transitions,
		Prev:        s.prev,
		Started:     s.started,
		PendingMech: s.pending,
		PendingAe:   s.pendingAe,
	}
	for _, m := range s.tree() {
		st.Mechs = append(st.Mechs, m.State())
	}
	return st
}

// SetState restores a state captured from an identically configured
// splitter.
func (s *Splitter) SetState(st SplitterState) error {
	ways, ms := s.Ways(), s.tree()
	if st.Ways != ways {
		return fmt.Errorf("affinity: state is %d-way, splitter is %d-way", st.Ways, ways)
	}
	if len(st.Mechs) != len(ms) {
		return fmt.Errorf("affinity: state has %d mechanisms, splitter has %d", len(st.Mechs), len(ms))
	}
	if st.PendingMech < -1 || st.PendingMech >= len(ms) {
		return fmt.Errorf("affinity: state pending mechanism %d out of range", st.PendingMech)
	}
	for i, m := range ms {
		if err := m.SetState(st.Mechs[i]); err != nil {
			return err
		}
	}
	// Prev is the subset the filters designate (see noteSubset).
	if sub := s.Subset(); st.Prev != sub {
		return fmt.Errorf("affinity: state subset %d, but its filters designate %d", st.Prev, sub)
	}
	s.refs = st.Refs
	s.sampledOut = st.SampledOut
	s.transitions = st.Transitions
	s.prev = st.Prev
	s.started = st.Started
	s.pending = st.PendingMech
	s.pendingAe = st.PendingAe
	return nil
}
