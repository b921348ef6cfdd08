package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// Snapshot is the serialisable state of a Machine behind its L1 front
// end: every L2, the prefetcher, the migration policy
// (splitters, affinity table), the active core, and the accumulated
// Stats. The L1s belong to the machine's Group, which checkpoints them
// once for all its members (Group.Capture). Restoring a group's
// checkpoint into a group built from the same Configs and re-driving
// the same reference stream from the capture point reproduces an
// uninterrupted run bit-for-bit — the property the checkpoint
// round-trip tests assert.
type Snapshot struct {
	Cores  int
	Active int

	L2       []cache.SetAssocState
	Prefetch *prefetch.State

	// Policy is the migration policy's state, nil in normal mode.
	Policy *migration.PolicyState

	Stats Stats

	// Telemetry carries the metric registry's values. Restore takes
	// only the registry-owned ones from it (refs, the migration-gap
	// histogram, the unbounded affinity table's counters); every view
	// onto a Stats, policy or affinity-cache field restores with its
	// owner. Checkpoints written before telemetry existed decode it as
	// the zero Snapshot, which zeroes just the registry-owned metrics
	// (see telemetry.Registry.SetState).
	Telemetry telemetry.Snapshot
}

// Snapshot captures the machine's current state. Telemetry is captured
// first: the policy's state capture walks the affinity table through
// non-counting paths, but ordering the metric copy ahead of everything
// else makes "capture never perturbs metrics" structural.
func (m *Machine) Snapshot() (Snapshot, error) {
	s := Snapshot{
		Cores:     m.cfg.Cores,
		Active:    m.active,
		Stats:     m.Stats,
		Telemetry: m.tel.Snapshot(),
	}
	for _, l2 := range m.l2 {
		s.L2 = append(s.L2, l2.State())
	}
	if m.pf != nil {
		st := m.pf.State()
		s.Prefetch = &st
	}
	if m.pol != nil {
		st, err := m.pol.PolicyState()
		if err != nil {
			return Snapshot{}, err
		}
		s.Policy = &st
	}
	return s, nil
}

// Restore loads a snapshot into the machine; its Group restores the L1
// section. The machine must have been built from the same Config as the
// one that produced the snapshot; every component validates its shape
// before mutating itself. The modified-owner index is rebuilt from the
// L2 states, which are rejected if they hold one line modified in two
// L2s (§2.1 never gets there). A failed Restore can still leave earlier
// components updated, so the caller must treat the machine as unusable
// after an error.
func (m *Machine) Restore(s Snapshot) error {
	if s.Cores != m.cfg.Cores {
		return fmt.Errorf("machine: snapshot has %d cores, machine has %d", s.Cores, m.cfg.Cores)
	}
	if s.Active < 0 || s.Active >= m.cfg.Cores {
		return fmt.Errorf("machine: snapshot active core %d out of %d", s.Active, m.cfg.Cores)
	}
	if len(s.L2) != len(m.l2) {
		return fmt.Errorf("machine: snapshot has %d L2s, machine has %d", len(s.L2), len(m.l2))
	}
	if (s.Prefetch != nil) != (m.pf != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on prefetcher presence")
	}
	if (s.Policy != nil) != (m.pol != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on migration policy presence")
	}
	for i, st := range s.L2 {
		if err := m.l2[i].SetState(st); err != nil {
			return fmt.Errorf("machine: L2[%d]: %w", i, err)
		}
	}
	if m.own != nil {
		if err := m.own.rebuild(s.L2); err != nil {
			return err
		}
	}
	if s.Prefetch != nil {
		if err := m.pf.SetState(*s.Prefetch); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	if s.Policy != nil {
		if err := m.pol.SetPolicyState(*s.Policy); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	// Last, so metric values overwrite anything restore-time table
	// rebuilding might have counted. Views are not written: they read
	// the owner fields restored above and below.
	if err := m.tel.SetState(s.Telemetry); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	m.active = s.Active
	m.Stats = s.Stats
	return nil
}
