package migration

// The pluggable policy layer. The paper hard-wires one migration
// algorithm — the Michaud affinity controller — into the machine model;
// real chips run many programs over asymmetric topologies and want to
// choose *when* and *where* execution moves per scenario ("New Thread
// Migration Strategies for NUMA Systems" supplies IMAR/LMMA-style
// competitors, "Affinity Tailor" the locality-aware target selection).
// Policy abstracts exactly the three decisions the controller makes —
// migration trigger, target-core choice, affinity update — so the
// Michaud controller becomes one plugin among several and the machine
// model stays policy-agnostic.

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Policy decides when and where execution migrates. Implementations
// observe the L1-miss request stream exactly as the paper's controller
// does: OnRequest for every L1 miss, OnL2Miss when the request went on
// to miss the active L2 (the §3.4 filtering point). Both return the
// designated core and whether a migration was executed; the machine
// moves its active core accordingly and accounts the event.
//
// Policies must be deterministic: the same request stream into a
// freshly built policy yields the same decision sequence, which is what
// the content-addressed result cache and the byte-identical -j contract
// rest on.
type Policy interface {
	// PolicyName returns the registry name ("michaud", "numa", ...).
	PolicyName() string
	// Ways returns the number of cores the policy schedules across.
	Ways() int
	// Active returns the currently designated core.
	Active() int
	// OnRequest observes one L1-miss request. With L2 filtering (the
	// paper's default) the decision is deferred to OnL2Miss and
	// migrated is always false.
	OnRequest(line mem.Line) (core int, migrated bool)
	// OnL2Miss commits the decision for the most recent request after
	// it missed the active L2. isPointerLoad marks §6 pointer-load
	// requests.
	OnL2Miss(isPointerLoad bool) (core int, migrated bool)
	// NearMigration reports whether the policy is within frac of
	// changing its designation (§6's broadcast-gating signal).
	NearMigration(frac float64) bool
	// Counters addresses the policy's own event counters, which a
	// telemetry registry exposes as views.
	Counters() Counters
	// SetProbes wires the remaining telemetry hooks into the policy.
	// Call once, before driving references.
	SetProbes(p Probes)
	// TableDropped returns how many affinity-table entries the policy's
	// memory cap evicted (0 for policies without an unbounded table).
	TableDropped() uint64
	// PolicyState captures the policy's serialisable state for
	// checkpoint/resume; SetPolicyState restores it into a policy built
	// from the same configuration.
	PolicyState() (PolicyState, error)
	SetPolicyState(PolicyState) error
}

// PolicyState is the serialisable state of any Policy: the policy name
// plus exactly one state shape. The michaud and numa controllers share
// ControllerState; the never baseline carries a NeverState.
type PolicyState struct {
	Name       string
	Controller *ControllerState
	Never      *NeverState
}

// PolicyMichaud is the default policy: the paper's affinity controller.
const PolicyMichaud = "michaud"

// policyFactories maps registry names to constructors. cfg is the
// shared controller configuration (splitter dimensions, affinity-table
// shape); topo the core-distance matrix (nil = uniform).
var policyFactories = map[string]func(cfg Config, topo *Topology) (Policy, error){
	PolicyMichaud: func(cfg Config, _ *Topology) (Policy, error) { return newController(PolicyMichaud, cfg, nil) },
	PolicyNuma:    func(cfg Config, topo *Topology) (Policy, error) { return newController(PolicyNuma, cfg, topo) },
	PolicyNever:   func(cfg Config, _ *Topology) (Policy, error) { return NewNeverPolicy(cfg.Split.Ways) },
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ValidPolicy reports whether name is a registered policy ("" selects
// the Michaud default).
func ValidPolicy(name string) bool {
	if name == "" {
		return true
	}
	_, ok := policyFactories[name]
	return ok
}

// NewPolicy builds the named policy over the shared controller
// configuration. name == "" selects the Michaud default. topo, when
// non-nil, must cover cfg.Split.Ways cores; policies that ignore topology
// accept any.
func NewPolicy(name string, cfg Config, topo *Topology) (Policy, error) {
	if name == "" {
		name = PolicyMichaud
	}
	f, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("migration: unknown policy %q (have %v)", name, PolicyNames())
	}
	if topo != nil {
		if err := topo.Validate(cfg.Split.Ways); err != nil {
			return nil, err
		}
	}
	return f(cfg, topo)
}

// Controller Policy conformance: the controller is the default plugin
// and, over a topology, the numa one.

// PolicyName implements Policy.
func (c *Controller) PolicyName() string { return c.name }

var _ Policy = (*Controller)(nil)
