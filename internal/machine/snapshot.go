package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// Snapshot is the complete serialisable state of a Machine: every cache,
// the prefetcher, the migration controller (splitters, affinity table),
// the active core, and the accumulated Stats. Restoring a snapshot into
// a machine built from the same Config and re-driving the same reference
// stream from the capture point reproduces an uninterrupted run
// bit-for-bit — the property the checkpoint round-trip tests assert.
type Snapshot struct {
	Cores  int
	Active int

	IL1, DL1 cache.SetAssocState
	L2       []cache.SetAssocState
	L3       *cache.SetAssocState
	Prefetch *prefetch.State

	Controller *migration.ControllerState

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
// first: the controller's state capture walks the affinity table
// through non-counting paths, but ordering the metric copy ahead of
// everything else makes "capture never perturbs metrics" structural.
func (m *Machine) Snapshot() (Snapshot, error) {
	s := Snapshot{
		Cores:     m.cfg.Cores,
		Active:    m.active,
		IL1:       m.il1.State(),
		DL1:       m.dl1.State(),
		Stats:     m.Stats,
		Telemetry: m.tel.Snapshot(),
	}
	for _, l2 := range m.l2 {
		s.L2 = append(s.L2, l2.State())
	}
	if m.l3 != nil {
		st := m.l3.State()
		s.L3 = &st
	}
	if m.pf != nil {
		st := m.pf.State()
		s.Prefetch = &st
	}
	// Only the default Michaud controller's state rides the Controller
	// field — that keeps the Snapshot gob shape (and hence checkpoint
	// bytes) exactly as before the policy layer. Other policies, numa
	// included, serialise through PolicyState into the checkpoint
	// extension.
	if c := m.michaud(); c != nil {
		st, err := c.State()
		if err != nil {
			return Snapshot{}, err
		}
		s.Controller = &st
	}
	return s, nil
}

// michaud returns the controller whose state rides Snapshot.Controller:
// the default policy's, nil under any other policy or in normal mode.
func (m *Machine) michaud() *migration.Controller {
	if m.ctrl != nil && m.ctrl.PolicyName() == migration.PolicyMichaud {
		return m.ctrl
	}
	return nil
}

// PolicyState captures the migration policy's serialisable state, for
// checkpoint payloads that carry non-default policies. Errors when the
// machine runs in normal mode.
func (m *Machine) PolicyState() (migration.PolicyState, error) {
	if m.pol == nil {
		return migration.PolicyState{}, fmt.Errorf("machine: no migration policy to capture")
	}
	return m.pol.PolicyState()
}

// SetPolicyState restores a policy state captured by PolicyState. The
// machine must have been built with the same policy and configuration.
func (m *Machine) SetPolicyState(ps migration.PolicyState) error {
	if m.pol == nil {
		return fmt.Errorf("machine: no migration policy to restore into")
	}
	return m.pol.SetPolicyState(ps)
}

// Restore loads a snapshot into the machine. The machine must have been
// built from the same Config as the one that produced the snapshot;
// every component validates its shape before mutating itself. The
// modified-owner index is rebuilt from the L2 states, which are
// rejected if they hold one line modified in two L2s (§2.1 never gets
// there). A failed
// Restore can still leave earlier components updated, so the caller must
// treat the machine as unusable after an error.
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
	if (s.L3 != nil) != (m.l3 != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on L3 presence")
	}
	if (s.Prefetch != nil) != (m.pf != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on prefetcher presence")
	}
	if (s.Controller != nil) != (m.michaud() != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on migration controller presence")
	}
	if err := m.il1.SetState(s.IL1); err != nil {
		return fmt.Errorf("machine: IL1: %w", err)
	}
	if err := m.dl1.SetState(s.DL1); err != nil {
		return fmt.Errorf("machine: DL1: %w", err)
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
	if s.L3 != nil {
		if err := m.l3.SetState(*s.L3); err != nil {
			return fmt.Errorf("machine: L3: %w", err)
		}
	}
	if s.Prefetch != nil {
		if err := m.pf.SetState(*s.Prefetch); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	if s.Controller != nil {
		if err := m.ctrl.SetState(*s.Controller); err != nil {
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
