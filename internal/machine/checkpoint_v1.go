package machine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"repro/internal/cache"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// EMCKPT1, the previous checkpoint version, framed its payload like
// EMCKPT2 but carried one or two gob values: the checkpoint, whose every
// snapshot held its own copy of the shared L1 front end and, for the
// michaud controller only, a Controller state; then, for a non-default
// scenario, an extension with the policy and topology names and a
// gob-in-gob envelope per machine for every other policy. The michaud
// default on a non-uniform topology wrote its state in both places.
// Its snapshots also had room for a finite shared L3; no front end
// could configure one, so every EMCKPT1 file on disk leaves it nil.
// The v1* types below decode those shapes by field name; translateV1
// is the only code that reads them.

const checkpointMagicV1 = "EMCKPT1\n"

type v1Checkpoint struct {
	Workload, Replay string
	Instr            uint64
	Cores            int
	Events           uint64
	Machines         []v1NamedSnapshot
}

type v1NamedSnapshot struct {
	Name string
	Snap v1Snapshot
}

type v1Snapshot struct {
	Cores, Active int
	IL1, DL1      cache.SetAssocState
	L2            []cache.SetAssocState
	L3            *cache.SetAssocState
	Prefetch      *prefetch.State
	// Controller held the michaud controller's state: ControllerState
	// without Target, Pending, Deferred and WeightedCost, which decode
	// as zero.
	Controller *migration.ControllerState
	Stats      Stats
	Telemetry  telemetry.Snapshot
}

type v1Ext struct {
	Policy, Topology string
	PolicyStates     []v1NamedPolicyState
}

type v1NamedPolicyState struct {
	Name  string
	State v1PolicyState
}

// v1PolicyState is the envelope: Data is the gob encoding of the
// named policy's state (a numa NumaState, which ControllerState now
// is, a michaud ControllerState or a NeverState).
type v1PolicyState struct {
	Name string
	Data []byte
}

// translateV1 decodes an EMCKPT1 payload into the current Checkpoint.
// The L1 section is the first (normal) snapshot's; a file whose
// snapshots disagree on it is refused, since the pair's machines share
// one L1 front end. A snapshot whose Controller and extension envelope
// both carry state must carry the same state, or the file is refused.
// So is a snapshot holding a finite L3: the machine it would resume
// into has an infinite one.
func translateV1(payload []byte) (*Checkpoint, error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var old v1Checkpoint
	if err := dec.Decode(&old); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	var ext v1Ext
	switch err := dec.Decode(&ext); err {
	case nil, io.EOF:
	default:
		return nil, fmt.Errorf("checkpoint: decode extension: %w", err)
	}
	ck := &Checkpoint{
		Workload: old.Workload, Replay: old.Replay, Instr: old.Instr, Cores: old.Cores,
		Policy: ext.Policy, Topology: ext.Topology, Events: old.Events,
	}
	for i, m := range old.Machines {
		s := m.Snap
		if i == 0 {
			ck.IL1, ck.DL1 = s.IL1, s.DL1
		} else if !reflect.DeepEqual(s.IL1, ck.IL1) || !reflect.DeepEqual(s.DL1, ck.DL1) {
			return nil, fmt.Errorf("checkpoint: EMCKPT1 snapshots %q and %q hold different L1 states; the pair shares one L1 front end",
				old.Machines[0].Name, m.Name)
		}
		if s.L3 != nil {
			return nil, fmt.Errorf("checkpoint: EMCKPT1 snapshot %q holds a finite L3; the machine's L3 is infinite", m.Name)
		}
		ps, err := v1PolicyOf(m.Name, s.Controller, ext.PolicyStates)
		if err != nil {
			return nil, err
		}
		ck.Machines = append(ck.Machines, NamedSnapshot{Name: m.Name, Snap: Snapshot{
			Cores: s.Cores, Active: s.Active, L2: s.L2, Prefetch: s.Prefetch,
			Policy: ps, Stats: s.Stats, Telemetry: s.Telemetry,
		}})
	}
	return ck, nil
}

// v1PolicyOf builds machine name's policy state from its snapshot's
// Controller field and its extension envelope, nil when it has neither
// (a normal-mode machine).
func v1PolicyOf(name string, ctrl *migration.ControllerState, envs []v1NamedPolicyState) (*migration.PolicyState, error) {
	var ps *migration.PolicyState
	if ctrl != nil {
		ps = &migration.PolicyState{Name: migration.PolicyMichaud, Controller: v1Michaud(*ctrl)}
	}
	for _, env := range envs {
		if env.Name != name {
			continue
		}
		st := migration.PolicyState{Name: env.State.Name}
		var out any
		switch env.State.Name {
		case migration.PolicyMichaud, migration.PolicyNuma:
			st.Controller = new(migration.ControllerState)
			out = st.Controller
		case migration.PolicyNever:
			st.Never = new(migration.NeverState)
			out = st.Never
		default:
			return nil, fmt.Errorf("checkpoint: EMCKPT1 machine %q has state for unknown policy %q", name, env.State.Name)
		}
		if err := gob.NewDecoder(bytes.NewReader(env.State.Data)).Decode(out); err != nil {
			return nil, fmt.Errorf("checkpoint: decoding EMCKPT1 %s state: %w", env.State.Name, err)
		}
		if st.Name == migration.PolicyMichaud {
			st.Controller = v1Michaud(*st.Controller)
		}
		if ps != nil && !reflect.DeepEqual(*ps, st) {
			return nil, fmt.Errorf("checkpoint: EMCKPT1 machine %q carries two different policy states (snapshot controller and %s envelope)",
				name, env.State.Name)
		}
		ps = &st
	}
	return ps, nil
}

// v1Michaud fills in what EMCKPT1's michaud state left out: the
// controller never defers, so nothing is in flight and every move cost
// one unit.
func v1Michaud(st migration.ControllerState) *migration.ControllerState {
	st.Target, st.Pending, st.Deferred = -1, 0, 0
	st.WeightedCost = float64(st.Migrations)
	return &st
}
