package migration

// NeverPolicy is the no-migration baseline: execution stays pinned on
// core 0 forever, so the program sees exactly one L2's worth of cache —
// the paper's "normal" configuration expressed as a policy. It anchors
// the tournament tables: any policy that loses to "never" is paying
// migration costs for nothing.

import (
	"fmt"

	"repro/internal/mem"
)

// PolicyNever is the registry name of the never-migrate baseline.
const PolicyNever = "never"

// NeverPolicy implements Policy by never migrating.
type NeverPolicy struct {
	ways int

	// Requests counts L1-miss requests; L2MissUpdates counts L2 misses
	// observed. Both exist so the baseline's telemetry lines up with the
	// real policies in tournament output.
	Requests      uint64
	L2MissUpdates uint64
}

// NewNeverPolicy builds the baseline for a core count (0 selects the
// 4-core default, mirroring Config.Ways).
func NewNeverPolicy(ways int) (*NeverPolicy, error) {
	if ways == 0 {
		ways = 4
	}
	switch ways {
	case 2, 4, 8:
		return &NeverPolicy{ways: ways}, nil
	default:
		return nil, fmt.Errorf("migration: unsupported Ways %d (want 2, 4 or 8)", ways)
	}
}

// PolicyName implements Policy.
func (p *NeverPolicy) PolicyName() string { return PolicyNever }

// Ways implements Policy.
func (p *NeverPolicy) Ways() int { return p.ways }

// Active implements Policy: always core 0.
func (p *NeverPolicy) Active() int { return 0 }

// OnRequest implements Policy.
func (p *NeverPolicy) OnRequest(_ mem.Line) (core int, migrated bool) {
	p.Requests++
	return 0, false
}

// OnL2Miss implements Policy.
func (p *NeverPolicy) OnL2Miss(_ bool) (core int, migrated bool) {
	p.L2MissUpdates++
	return 0, false
}

// NearMigration implements Policy: never.
func (p *NeverPolicy) NearMigration(float64) bool { return false }

// Counters implements Policy.
func (p *NeverPolicy) Counters() Counters {
	return Counters{Requests: &p.Requests, L2MissUpdates: &p.L2MissUpdates}
}

// SetProbes implements Policy: the baseline never migrates and has no
// table, so there is nothing to observe.
func (p *NeverPolicy) SetProbes(Probes) {}

// TableDropped implements Policy: no table, nothing dropped.
func (p *NeverPolicy) TableDropped() uint64 { return 0 }

// NeverState is the serialisable state of a NeverPolicy.
type NeverState struct {
	Requests, L2MissUpdates uint64
}

// PolicyState implements Policy.
func (p *NeverPolicy) PolicyState() (PolicyState, error) {
	return encodePolicyState(PolicyNever, NeverState{
		Requests:      p.Requests,
		L2MissUpdates: p.L2MissUpdates,
	})
}

// SetPolicyState implements Policy.
func (p *NeverPolicy) SetPolicyState(ps PolicyState) error {
	var st NeverState
	if err := decodePolicyState(ps, PolicyNever, &st); err != nil {
		return err
	}
	p.Requests = st.Requests
	p.L2MissUpdates = st.L2MissUpdates
	return nil
}

var _ Policy = (*NeverPolicy)(nil)
