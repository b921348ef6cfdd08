package migration

// NumaPolicy is the distance-weighted migration policy: the Michaud
// affinity machinery deciding *where* execution wants to be, with a
// NUMA-aware hysteresis deciding *whether the move is worth its price*.
// Where the Michaud controller migrates the instant the splitter's
// designation changes, the NUMA policy demands the designation persist
// for ⌈Dist[active][target]⌉ consecutive commits before paying for the
// move — a neighbour hop (distance 1) migrates immediately, a
// cross-chip move must prove itself proportionally longer. Under the
// uniform topology every distance is 1, every threshold is 1, and the
// policy's decision sequence is exactly the Michaud controller's — the
// differential tests pin that equivalence.

import (
	"fmt"
	"math"

	"repro/internal/affinity"
	"repro/internal/mem"
)

// PolicyNuma is the registry name of the distance-weighted policy.
const PolicyNuma = "numa"

// NumaPolicy implements Policy with distance-weighted migration
// hysteresis over the standard affinity machinery.
type NumaPolicy struct {
	split affinity.Splitter
	table affinity.Table
	topo  *Topology

	active int
	// target/pending track the hysteresis: the core the splitter has
	// been designating and for how many consecutive commits. target is
	// -1 when the designation matches the active core.
	target  int
	pending int

	// noFiltering and ptrOnly mirror immutable Config switches.
	//emlint:nosnapshot configuration; states restore into identically configured policies
	noFiltering bool
	//emlint:nosnapshot configuration; states restore into identically configured policies
	ptrOnly bool

	// Migrations counts executed migrations; Deferred counts commits
	// where the splitter wanted to move but the distance threshold held
	// execution in place.
	Migrations uint64
	Deferred   uint64
	// Requests counts L1-miss requests observed; L2MissUpdates counts
	// transition-filter updates.
	Requests      uint64
	L2MissUpdates uint64
	// WeightedCost sums Dist[from][to] over executed migrations — the
	// topology-weighted migration count the TimeModel charges instead of
	// the raw Migrations under non-uniform penalties.
	WeightedCost float64

	lastMigRequests uint64

	//emlint:nosnapshot observational handles; counter values live in the owning telemetry registry
	probes Probes
}

// NewNumaPolicy builds the distance-weighted policy from the shared
// controller configuration plus a topology. topo == nil selects the
// uniform topology (under which the policy is Michaud-equivalent).
func NewNumaPolicy(cfg Config, topo *Topology) (*NumaPolicy, error) {
	split, table, err := newSplitter(cfg)
	if err != nil {
		return nil, err
	}
	if topo == nil {
		topo = NewUniformTopology(split.Ways())
	}
	if err := topo.Validate(split.Ways()); err != nil {
		return nil, err
	}
	return &NumaPolicy{
		split:       split,
		table:       table,
		topo:        topo,
		target:      -1,
		noFiltering: cfg.NoL2Filtering,
		ptrOnly:     cfg.PointerLoadsOnly,
	}, nil
}

// PolicyName implements Policy.
func (n *NumaPolicy) PolicyName() string { return PolicyNuma }

// Ways implements Policy.
func (n *NumaPolicy) Ways() int { return n.split.Ways() }

// Active implements Policy.
func (n *NumaPolicy) Active() int { return n.active }

// Topology returns the distance matrix the policy weighs moves by.
func (n *NumaPolicy) Topology() *Topology { return n.topo }

// Counters implements Policy.
func (n *NumaPolicy) Counters() Counters {
	c, _ := n.table.(*affinity.Cache)
	return Counters{Requests: &n.Requests, L2MissUpdates: &n.L2MissUpdates, Deferred: &n.Deferred, Cache: c}
}

// SetProbes implements Policy.
func (n *NumaPolicy) SetProbes(p Probes) {
	n.probes = p
	setTableProbes(n.table, p.Table)
}

// OnRequest implements Policy: identical request accounting and
// affinity updates to the Michaud controller; only the migration
// decision (in decide) differs.
func (n *NumaPolicy) OnRequest(line mem.Line) (core int, migrated bool) {
	n.Requests++
	if n.noFiltering {
		return n.decide(n.split.Ref(line, true))
	}
	n.split.Ref(line, false)
	return n.active, false
}

// OnL2Miss implements Policy.
func (n *NumaPolicy) OnL2Miss(isPointerLoad bool) (core int, migrated bool) {
	if n.ptrOnly && !isPointerLoad {
		return n.active, false
	}
	n.L2MissUpdates++
	return n.decide(n.split.CommitLastFilter())
}

// decide applies the distance-weighted hysteresis to the splitter's
// designation: a move to sub executes only once the designation has
// persisted for ⌈Dist[active][sub]⌉ consecutive commits.
func (n *NumaPolicy) decide(sub int) (core int, migrated bool) {
	if sub == n.active {
		n.target, n.pending = -1, 0
		return n.active, false
	}
	if sub != n.target {
		n.target, n.pending = sub, 1
	} else {
		n.pending++
	}
	dist := n.topo.Dist[n.active][sub]
	if n.pending >= int(math.Ceil(dist)) {
		n.active = sub
		n.target, n.pending = -1, 0
		n.Migrations++
		n.WeightedCost += dist
		n.probes.MigrationGap.Observe(n.Requests - n.lastMigRequests)
		n.lastMigRequests = n.Requests
		return sub, true
	}
	n.Deferred++
	return n.active, false
}

// WeightedMigrationCost implements DistanceWeighted.
func (n *NumaPolicy) WeightedMigrationCost() float64 { return n.WeightedCost }

// NearMigration implements Policy.
func (n *NumaPolicy) NearMigration(frac float64) bool {
	return n.split.MinFilterFraction() < frac
}

// TableDropped implements Policy.
func (n *NumaPolicy) TableDropped() uint64 {
	if u, ok := n.table.(*affinity.Unbounded); ok {
		return u.Dropped
	}
	return 0
}

// NumaState is the serialisable state of a NumaPolicy.
type NumaState struct {
	Split  affinity.SplitterState
	Table  affinity.TableState
	Active int
	// Target/Pending carry the in-flight hysteresis across a
	// checkpoint so resumed runs replay identically.
	Target  int
	Pending int

	Migrations, Deferred, Requests, L2MissUpdates uint64
	WeightedCost                                  float64
	LastMigRequests                               uint64
}

// PolicyState implements Policy.
func (n *NumaPolicy) PolicyState() (PolicyState, error) {
	ts, err := affinity.CaptureTableState(n.table)
	if err != nil {
		return PolicyState{}, err
	}
	return encodePolicyState(PolicyNuma, NumaState{
		Split:           n.split.State(),
		Table:           ts,
		Active:          n.active,
		Target:          n.target,
		Pending:         n.pending,
		Migrations:      n.Migrations,
		Deferred:        n.Deferred,
		Requests:        n.Requests,
		L2MissUpdates:   n.L2MissUpdates,
		WeightedCost:    n.WeightedCost,
		LastMigRequests: n.lastMigRequests,
	})
}

// SetPolicyState implements Policy. The receiving policy must have been
// built from the same Config and topology.
func (n *NumaPolicy) SetPolicyState(ps PolicyState) error {
	var st NumaState
	if err := decodePolicyState(ps, PolicyNuma, &st); err != nil {
		return err
	}
	if st.Active < 0 || st.Active >= n.split.Ways() {
		return fmt.Errorf("migration: state active core %d out of %d ways", st.Active, n.split.Ways())
	}
	if st.Target < -1 || st.Target >= n.split.Ways() {
		return fmt.Errorf("migration: state target core %d out of %d ways", st.Target, n.split.Ways())
	}
	if err := n.split.SetState(st.Split); err != nil {
		return err
	}
	if err := affinity.RestoreTableState(n.table, st.Table); err != nil {
		return err
	}
	n.active = st.Active
	n.target = st.Target
	n.pending = st.Pending
	n.Migrations = st.Migrations
	n.Deferred = st.Deferred
	n.Requests = st.Requests
	n.L2MissUpdates = st.L2MissUpdates
	n.WeightedCost = st.WeightedCost
	n.lastMigRequests = st.LastMigRequests
	return nil
}

var (
	_ Policy           = (*NumaPolicy)(nil)
	_ DistanceWeighted = (*NumaPolicy)(nil)
)
