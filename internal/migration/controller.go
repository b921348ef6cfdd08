// Package migration implements the paper's migration controller (§2.2,
// §3): the hardware block that monitors L1-miss requests from the active
// core, runs the affinity machinery, and decides when and where to
// migrate execution. It also provides the migration-penalty analysis of
// §2.4/§4.2 (break-even Pmig and a simple timing model).
//
// Beyond the paper's simulated 4-core configuration, the controller
// supports the two extensions §6 sketches: 2- and 8-core splitting
// ("it works also on 2-core configurations, and we believe it is
// possible to adapt it to a larger number of cores") and pointer-load
// filtering ("having the transition filter updated only on requests
// coming from pointer loads").
package migration

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Config parameterises the controller.
type Config struct {
	// Split dimensions the splitter (affinity.Table2Config() is the
	// paper's §4.2 setting). Its Ways is the splitting degree, 2, 4 or
	// 8, and must match the machine's core count.
	Split affinity.SplitConfig
	// TableEntries bounds the affinity cache; 0 selects an unbounded
	// table (the §4.1 idealisation). The paper's Table 2 uses 8192.
	TableEntries int
	// TableLimit caps the unbounded table (TableEntries == 0) so hostile
	// or enormous traces degrade (oldest entries dropped, counted in
	// TableDropped) instead of exhausting host memory. 0 applies
	// DefaultTableLimit; negative means truly unlimited.
	TableLimit int
	// NoL2Filtering disables the paper's L2 filtering (§3.4): the
	// transition filter then updates on every L1-miss request and a
	// migration may trigger even when the request would hit the active
	// L2. Exists for the ablation bench; the paper's Table 2 uses L2
	// filtering (default false).
	NoL2Filtering bool
	// PointerLoadsOnly applies §6's restriction: only requests from
	// pointer loads (mem.PtrLoad) update the transition filter, so only
	// linked-data-structure traffic can trigger migrations.
	PointerLoadsOnly bool
}

// Table2Config returns the paper's §4.2 controller: 4-way, 8k-entry
// 4-way skewed affinity cache, 18-bit filters, 25% sampling, L2
// filtering (the machine applies the filtering by calling OnL2Miss only
// on misses).
func Table2Config() Config {
	return Config{
		Split:        affinity.Table2Config(),
		TableEntries: 8192,
	}
}

// ConfigForCores returns a Table2-style controller for 2, 4 or 8 cores:
// Table2Config split that many ways. The affinity cache scales with
// the aggregate L2 capacity, as §3.5 prescribes ("the affinity cache
// size should be proportional to the total on-chip L2 capacity"): 2048
// entries per core at 25% sampling.
func ConfigForCores(cores int) (Config, error) {
	cfg := Table2Config()
	cfg.Split.Ways = cores
	cfg.TableEntries = 2048 * cores
	if err := cfg.Split.Validate(); err != nil {
		return Config{}, fmt.Errorf("migration: unsupported core count %d (want 2, 4 or 8)", cores)
	}
	return cfg, nil
}

// MustConfigForCores is ConfigForCores panicking on error, for call
// sites with compile-time-constant core counts.
func MustConfigForCores(cores int) Config {
	cfg, err := ConfigForCores(cores)
	if err != nil {
		panic(err)
	}
	return cfg
}

// DefaultTableLimit is the entry cap applied to the unbounded affinity
// table when Config.TableLimit is 0: 2^21 entries (an order of magnitude
// above any of the paper's working sets) keeps memory bounded without
// perturbing the reproduced experiments.
const DefaultTableLimit = 1 << 21

// tableWays is the bounded affinity cache's associativity (paper: 4,
// skewed).
const tableWays = 4

// Controller tracks the active core and decides migrations. It is the
// one affinity-based policy: registered as "michaud" it is the paper's
// controller, and registered as "numa" it adds the distance hysteresis
// of decide over a topology.
type Controller struct {
	split *affinity.Splitter
	table affinity.Table
	// name is the registry name the controller was built under
	// (PolicyMichaud or PolicyNuma); it names the checkpointed policy
	// state and selects whether the deferral counter is exposed.
	// Not checkpointed: configuration; states restore into identically configured controllers.
	name string
	// topo weighs moves in decide; the uniform chip when none was given.
	// Not checkpointed: configuration; states restore into identically configured controllers.
	topo   *Topology
	active int
	// target/pending track the hysteresis: the core the splitter has
	// been designating and for how many consecutive commits. target is
	// -1 when the designation matches the active core.
	target  int
	pending int
	// noFiltering and ptrOnly mirror immutable Config switches.
	// Not checkpointed: configuration; states restore into identically configured controllers.
	noFiltering bool
	// Not checkpointed: configuration; states restore into identically configured controllers.
	ptrOnly bool

	// Migrations counts executed migrations; Deferred counts commits
	// where the splitter wanted to move but the distance threshold held
	// execution in place (always 0 on the uniform chip).
	Migrations uint64
	Deferred   uint64
	// Requests counts L1-miss requests observed.
	Requests uint64
	// L2MissUpdates counts transition-filter updates (= L2 misses seen,
	// minus those skipped by pointer-load filtering).
	L2MissUpdates uint64
	// WeightedCost sums Dist[from][to] over executed migrations — the
	// topology-weighted migration count the TimeModel charges instead of
	// the raw Migrations under non-uniform penalties.
	WeightedCost float64

	// lastMigRequests is the Requests value at the most recent migration,
	// the reference point of the migration-gap histogram.
	lastMigRequests uint64

	// probes carry the telemetry the controller keeps no field for (the
	// zero value is a no-op).
	// Not checkpointed: observational handles; counter values live in the owning telemetry registry.
	probes Probes
}

// Counters addresses a policy's own event counters: the fields a
// telemetry registry exposes as views (telemetry.Registry.View), so the
// policy's one increment per event is the metric's only update and the
// policy's own checkpointed state restores it.
type Counters struct {
	Requests, L2MissUpdates *uint64
	// Deferred counts migrations the numa controller's distance
	// hysteresis withheld; nil under every other policy.
	Deferred *uint64
	// Cache is the bounded affinity cache, whose Hits, Misses and
	// Evictions are views too; nil with an unbounded table (which counts
	// through Probes.Table) or no table.
	Cache *affinity.Cache
}

// Probes are a policy's optional telemetry hooks for what it keeps no
// counter field for. MigrationGap observes, at each migration, how many
// L1-miss requests elapsed since the previous one — the controller's
// effective migration tempo, which the affinity machinery is supposed
// to keep far above the break-even point (§2.4).
type Probes struct {
	MigrationGap telemetry.Histogram
	// Table is forwarded to an unbounded affinity table.
	Table affinity.TableProbes
}

// Counters implements Policy. Only the numa controller exposes
// Deferred: the default metric set, and with it the telemetry section
// of default checkpoints, has no deferral counter.
func (c *Controller) Counters() Counters {
	cs := Counters{Requests: &c.Requests, L2MissUpdates: &c.L2MissUpdates, Cache: c.AffinityCache()}
	if c.name == PolicyNuma {
		cs.Deferred = &c.Deferred
	}
	return cs
}

// SetProbes wires telemetry hooks into the controller and its affinity
// table (an unbounded one; a bounded cache counts in its own fields).
// Call once, before driving references.
func (c *Controller) SetProbes(p Probes) {
	c.probes = p
	if u, ok := c.table.(*affinity.Unbounded); ok {
		u.Probes = p.Table
	}
}

// newController builds the controller registered as name over the
// affinity machinery — table plus splitter — cfg describes. topo ==
// nil selects the uniform topology, under which every move is
// immediate. Configuration problems — an unsupported way count, a
// malformed mechanism or table shape — come back as errors.
func newController(name string, cfg Config, topo *Topology) (*Controller, error) {
	if err := cfg.Split.Validate(); err != nil {
		return nil, err
	}
	var table affinity.Table
	if cfg.TableEntries == 0 {
		limit := cfg.TableLimit
		if limit == 0 {
			limit = DefaultTableLimit
		}
		table = affinity.NewUnboundedLimit(limit) // negative limit → unlimited
	} else {
		if cfg.TableEntries < tableWays || cfg.TableEntries%tableWays != 0 ||
			!isPow2(cfg.TableEntries/tableWays) {
			return nil, fmt.Errorf("migration: affinity cache of %d entries / %d ways is not ways × power-of-two sets",
				cfg.TableEntries, tableWays)
		}
		table = affinity.NewCache(cfg.TableEntries, tableWays)
	}
	if topo == nil {
		topo = NewUniformTopology(cfg.Split.Ways)
	}
	if err := topo.Validate(cfg.Split.Ways); err != nil {
		return nil, err
	}
	return &Controller{
		split:       affinity.NewSplitter(cfg.Split, table),
		table:       table,
		name:        name,
		topo:        topo,
		target:      -1,
		noFiltering: cfg.NoL2Filtering,
		ptrOnly:     cfg.PointerLoadsOnly,
	}, nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Ways returns the number of cores the controller splits across.
func (c *Controller) Ways() int { return c.split.Ways() }

// Active returns the currently active core (0..Ways-1).
func (c *Controller) Active() int { return c.active }

// OnRequest feeds one L1-miss request into the affinity machinery
// (R-window, AR, ∆, affinity cache). With L2 filtering (the default)
// the transition filter does NOT move here — the machine calls OnL2Miss
// if the request goes on to miss the active L2 — and the returned
// migrated is always false. With NoL2Filtering the filter moves on
// every request and a migration may trigger immediately.
func (c *Controller) OnRequest(line mem.Line) (core int, migrated bool) {
	c.Requests++
	if c.noFiltering {
		return c.decide(c.split.Ref(line, true))
	}
	c.split.Ref(line, false)
	return c.active, false
}

// OnL2Miss commits the pending transition-filter update for the most
// recent request (L2 filtering, §3.4) and decides on the designated
// core. isPointerLoad marks requests issued by pointer loads; with
// PointerLoadsOnly set, other requests skip the filter update (§6).
func (c *Controller) OnL2Miss(isPointerLoad bool) (core int, migrated bool) {
	if c.ptrOnly && !isPointerLoad {
		return c.active, false
	}
	c.L2MissUpdates++
	return c.decide(c.split.CommitLastFilter())
}

// NearMigration reports whether any deciding transition filter is
// within frac of a sign change (§6: "broadcast register updates only
// when the transition filter absolute value falls below a certain
// threshold, as it indicates a possible migration").
func (c *Controller) NearMigration(frac float64) bool {
	return c.split.MinFilterFraction() < frac
}

// Splitter exposes the underlying splitter (instrumentation).
func (c *Controller) Splitter() *affinity.Splitter { return c.split }

// AffinityCache returns the bounded affinity cache, or nil when the
// controller uses an unbounded table.
func (c *Controller) AffinityCache() *affinity.Cache {
	if ac, ok := c.table.(*affinity.Cache); ok {
		return ac
	}
	return nil
}

// TableDropped returns how many affinity-table entries the unbounded
// table's memory cap evicted (0 for a bounded cache, which recycles
// entries by design — see Evictions on AffinityCache).
func (c *Controller) TableDropped() uint64 {
	if u, ok := c.table.(*affinity.Unbounded); ok {
		return u.Dropped
	}
	return 0
}

// ControllerState is the serialisable state of the affinity
// controller under either name. Under michaud, which never defers,
// Target is always -1, Pending and Deferred are 0, and WeightedCost
// equals Migrations.
type ControllerState struct {
	Split  affinity.SplitterState
	Table  affinity.TableState
	Active int
	// Target/Pending carry the in-flight hysteresis across a
	// checkpoint so resumed runs replay identically.
	Target  int
	Pending int

	Migrations, Deferred, Requests, L2MissUpdates uint64
	WeightedCost                                  float64
	// LastMigRequests preserves the migration-gap reference point.
	LastMigRequests uint64
}

// PolicyState implements Policy: the controller's full state.
func (c *Controller) PolicyState() (PolicyState, error) {
	ts, err := affinity.CaptureTableState(c.table)
	if err != nil {
		return PolicyState{}, err
	}
	return PolicyState{Name: c.name, Controller: &ControllerState{
		Split:           c.split.State(),
		Table:           ts,
		Active:          c.active,
		Target:          c.target,
		Pending:         c.pending,
		Migrations:      c.Migrations,
		Deferred:        c.Deferred,
		Requests:        c.Requests,
		L2MissUpdates:   c.L2MissUpdates,
		WeightedCost:    c.WeightedCost,
		LastMigRequests: c.lastMigRequests,
	}}, nil
}

// SetPolicyState implements Policy. The receiving controller must have
// been built under the same name, Config and topology.
func (c *Controller) SetPolicyState(ps PolicyState) error {
	if ps.Name != c.name || ps.Controller == nil {
		return fmt.Errorf("migration: state is for policy %q, not %q", ps.Name, c.name)
	}
	st := *ps.Controller
	if st.Active < 0 || st.Active >= c.split.Ways() {
		return fmt.Errorf("migration: state active core %d out of %d ways", st.Active, c.split.Ways())
	}
	if st.Target < -1 || st.Target >= c.split.Ways() {
		return fmt.Errorf("migration: state target core %d out of %d ways", st.Target, c.split.Ways())
	}
	if err := c.split.SetState(st.Split); err != nil {
		return err
	}
	if err := affinity.RestoreTableState(c.table, st.Table); err != nil {
		return err
	}
	c.active = st.Active
	c.target = st.Target
	c.pending = st.Pending
	c.Migrations = st.Migrations
	c.Deferred = st.Deferred
	c.Requests = st.Requests
	c.L2MissUpdates = st.L2MissUpdates
	c.WeightedCost = st.WeightedCost
	c.lastMigRequests = st.LastMigRequests
	return nil
}
