// Package snap is the golden fixture for the emlint snapshotcomplete
// analyzer: structs with Snapshot/Restore, State/SetState or
// PolicyState/SetPolicyState pairs whose coverage is deliberately
// incomplete, plus a pair that reaches its fields through helpers and
// must stay clean.
package snap

// Machine carries one field each method misses, one field both miss,
// and one reviewed exemption.
type Machine struct {
	pc      int
	regs    [4]int
	cycles  int // want `field Machine.cycles is not referenced by Restore`
	temp    int // want `field Machine.temp is not referenced by Snapshot or Restore`
	scratch int //emlint:nosnapshot per-access scratch, no cross-call state
}

// MachineState is the serialised form of Machine.
type MachineState struct {
	PC     int
	Regs   [4]int
	Cycles int
}

// Snapshot captures everything except temp and scratch.
func (m *Machine) Snapshot() MachineState {
	return MachineState{PC: m.pc, Regs: m.regs, Cycles: m.cycles}
}

// Restore forgets cycles: a resumed machine restarts its clock.
func (m *Machine) Restore(s MachineState) {
	m.pc = s.PC
	m.regs = s.Regs
}

// Table reaches both fields only through helpers; the analyzer must
// follow the same-package call graph and report nothing.
type Table struct {
	entries map[int]int
	hits    int
}

// TableState is the serialised form of Table.
type TableState struct {
	Entries map[int]int
	Hits    int
}

// State deep-copies through copyEntries.
func (t *Table) State() TableState {
	return TableState{Entries: t.copyEntries(), Hits: t.hits}
}

func (t *Table) copyEntries() map[int]int {
	out := make(map[int]int, len(t.entries))
	for k, v := range t.entries {
		out[k] = v
	}
	return out
}

// SetState restores through restoreEntries.
func (t *Table) SetState(s TableState) {
	t.restoreEntries(s.Entries)
	t.hits = s.Hits
}

func (t *Table) restoreEntries(m map[int]int) {
	t.entries = make(map[int]int, len(m))
	for k, v := range m {
		t.entries[k] = v
	}
}

// Half has only one side of a pair: no check applies.
type Half struct {
	v int
}

// Snapshot alone does not constitute a pair.
func (h *Half) Snapshot() int { return 0 }

// Policy is a migration policy: its pair is PolicyState/SetPolicyState,
// and the counter it forgets to save is reported.
type Policy struct {
	moves   int
	pending int // want `field Policy.pending is not referenced by PolicyState or SetPolicyState`
}

// PolicyState captures moves only.
func (p *Policy) PolicyState() int { return p.moves }

// SetPolicyState restores moves only.
func (p *Policy) SetPolicyState(moves int) { p.moves = moves }
