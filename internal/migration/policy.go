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
	"bytes"
	"encoding/gob"
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

// DistanceWeighted is the optional interface of policies that weigh
// migrations by core distance: WeightedMigrationCost returns the sum of
// Dist[from][to] over executed migrations, the quantity the TimeModel
// charges under a non-uniform topology (CyclesWeighted). Policies
// without the interface implicitly charge 1 per migration.
type DistanceWeighted interface {
	WeightedMigrationCost() float64
}

// PolicyState is the serialisable state of any Policy: the policy name
// plus the policy's own state gob-encoded into Data. The indirection
// keeps the EMCKPT1 checkpoint format closed over one concrete type
// while each policy owns its state shape.
type PolicyState struct {
	Name string
	Data []byte
}

// encodePolicyState goes state → PolicyState for a named policy.
func encodePolicyState(name string, state any) (PolicyState, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return PolicyState{}, fmt.Errorf("migration: encoding %s state: %w", name, err)
	}
	return PolicyState{Name: name, Data: buf.Bytes()}, nil
}

// decodePolicyState checks the name tag and decodes Data into out.
func decodePolicyState(ps PolicyState, name string, out any) error {
	if ps.Name != name {
		return fmt.Errorf("migration: state is for policy %q, not %q", ps.Name, name)
	}
	if err := gob.NewDecoder(bytes.NewReader(ps.Data)).Decode(out); err != nil {
		return fmt.Errorf("migration: decoding %s state: %w", name, err)
	}
	return nil
}

// PolicyMichaud is the default policy: the paper's affinity controller.
const PolicyMichaud = "michaud"

// policyFactories maps registry names to constructors. cfg is the
// shared controller configuration (splitter dimensions, affinity-table
// shape); topo the core-distance matrix (nil = uniform).
var policyFactories = map[string]func(cfg Config, topo *Topology) (Policy, error){
	PolicyMichaud: func(cfg Config, _ *Topology) (Policy, error) { return NewController(cfg) },
	"numa":        func(cfg Config, topo *Topology) (Policy, error) { return NewNumaPolicy(cfg, topo) },
	"never":       func(cfg Config, _ *Topology) (Policy, error) { return NewNeverPolicy(cfg.Ways) },
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	//emlint:ordered collected names are sorted before they escape
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
// non-nil, must cover cfg.Ways cores; policies that ignore topology
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
		ways := cfg.Ways
		if ways == 0 {
			ways = 4 // Config's Ways default, mirrored from NewController
		}
		if err := topo.Validate(ways); err != nil {
			return nil, err
		}
	}
	return f(cfg, topo)
}

// Michaud Policy conformance: the Controller is the default plugin.

// PolicyName implements Policy.
func (c *Controller) PolicyName() string { return PolicyMichaud }

// PolicyState implements Policy: the ControllerState gob-wrapped into
// the generic envelope.
func (c *Controller) PolicyState() (PolicyState, error) {
	st, err := c.State()
	if err != nil {
		return PolicyState{}, err
	}
	return encodePolicyState(PolicyMichaud, st)
}

// SetPolicyState implements Policy.
func (c *Controller) SetPolicyState(ps PolicyState) error {
	var st ControllerState
	if err := decodePolicyState(ps, PolicyMichaud, &st); err != nil {
		return err
	}
	return c.SetState(st)
}

var _ Policy = (*Controller)(nil)
