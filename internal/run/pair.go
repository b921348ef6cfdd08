package run

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// Pair is the experiment's two machines: the 1-core baseline, named
// "normal" in checkpoints, and the migration chip, named "migration".
// They are one machine.Group: both see every event through one shared
// L1 front end, so a pair is driven only as a whole (Sink) and from one
// goroutine, and its two machines always sit at the same event.
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

// Sink returns the pair as a Stream's target: the one group kernel
// that feeds both machines.
func (p *Pair) Sink() mem.BatchSink { return p.grp }

// Checkpoint captures the pair after events events of the run spec
// describes: the scenario names, the shared L1 section once, and both
// machines' snapshots.
func (p *Pair) Checkpoint(spec Spec, events uint64) (*machine.Checkpoint, error) {
	ck, err := p.grp.Capture("normal", "migration")
	if err != nil {
		return nil, err
	}
	ck.Workload, ck.Replay, ck.Instr = spec.Workload, spec.Replay, spec.Instr
	ck.Cores, ck.Events, ck.Policy = p.migCfg.Cores, events, p.migCfg.Policy
	if p.migCfg.Topology != nil {
		ck.Topology = p.migCfg.Topology.Name
	}
	return ck, nil
}

// Restore loads a checkpoint's L1 section and machine states into the
// pair.
func (p *Pair) Restore(ck *machine.Checkpoint) error {
	return p.grp.Restore(ck, "normal", "migration")
}
