package run

import (
	"fmt"
	"reflect"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Pair is the experiment's two machines: the 1-core baseline, named
// "normal" in checkpoints, and the migration chip, named "migration".
// They are one machine.Group: both see every event through one shared
// L1 front end, so a pair is driven only as a whole (Sinks) and from
// one goroutine. Passes that drive the two machines separately build
// them unshared (Spec.NewMachines).
type Pair struct {
	Normal, Mig *machine.Machine
	grp         *machine.Group
	migCfg      machine.Config
}

// NewPairConfig builds a pair from explicit machine configurations,
// which must agree on the L1 front end.
func NewPairConfig(normal, mig machine.Config) (*Pair, error) {
	g, err := machine.NewGroup(normal, mig)
	if err != nil {
		return nil, err
	}
	ms := g.Machines()
	return &Pair{Normal: ms[0], Mig: ms[1], grp: g, migCfg: mig}, nil
}

// Sinks returns the pair as a Stream's tee targets: the one group
// kernel that feeds both machines.
func (p *Pair) Sinks() []mem.BatchSink { return []mem.BatchSink{p.grp} }

// Checkpoint captures both machines after events events of the run
// spec describes. Non-default scenarios attach the policy and topology
// names plus the migration machine's policy state as the EMCKPT1
// extension; default runs attach nothing, which keeps their files
// byte-identical to the pre-policy format.
func (p *Pair) Checkpoint(spec Spec, events uint64) (*machine.Checkpoint, error) {
	ns, err := p.Normal.Snapshot()
	if err != nil {
		return nil, err
	}
	ms, err := p.Mig.Snapshot()
	if err != nil {
		return nil, err
	}
	ck := &machine.Checkpoint{
		Workload: spec.Workload,
		Replay:   spec.Replay,
		Instr:    spec.Instr,
		Cores:    p.migCfg.Cores,
		Events:   events,
		Machines: []machine.NamedSnapshot{
			{Name: "normal", Snap: ns},
			{Name: "migration", Snap: ms},
		},
	}
	policy := p.migCfg.Policy
	topology := ""
	if p.migCfg.Topology != nil {
		topology = p.migCfg.Topology.Name
	}
	if policy != "" || topology != "" {
		ps, err := p.Mig.PolicyState()
		if err != nil {
			return nil, err
		}
		ck.SetExt(&machine.CheckpointExt{
			Policy:   policy,
			Topology: topology,
			PolicyStates: []machine.NamedPolicyState{
				{Name: "migration", State: ps},
			},
		})
	}
	return ck, nil
}

// Restore loads a checkpoint's machine states into the pair. Policies
// other than the Michaud controller serialise through the checkpoint
// extension (the snapshot's Controller field stays nil for them), so
// their state is restored after the cache and stat state. The two
// machines share one L1 front end, so a checkpoint whose IL1 or DL1
// sections differ between them is rejected.
func (p *Pair) Restore(ck *machine.Checkpoint) error {
	ns, err := ck.Machine("normal")
	if err != nil {
		return err
	}
	ms, err := ck.Machine("migration")
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ns.IL1, ms.IL1) || !reflect.DeepEqual(ns.DL1, ms.DL1) {
		return fmt.Errorf("run: checkpoint's normal and migration L1 states differ; the pair shares one L1 front end")
	}
	if err := p.Normal.Restore(*ns); err != nil {
		return err
	}
	if err := p.Mig.Restore(*ms); err != nil {
		return err
	}
	if ext := ck.Ext(); ext != nil {
		ps, err := ext.State("migration")
		if err != nil {
			return err
		}
		if err := p.Mig.SetPolicyState(ps); err != nil {
			return fmt.Errorf("run: restoring policy state: %w", err)
		}
	}
	return nil
}
