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
	// Ways selects the splitting degree: 2, 4 (default) or 8. It must
	// match the machine's core count.
	Ways int
	// Split dimensions the 4-way splitter (affinity.Table2Config() is
	// the paper's §4.2 setting). Used when Ways == 4.
	Split affinity.Split4Config
	// Split2 dimensions the 2-way splitter (Ways == 2);
	// Split2SampleLimit applies §3.5 sampling to it (0 = no sampling).
	Split2            affinity.MechConfig
	Split2SampleLimit uint32
	// Split8 dimensions the 8-way splitter (Ways == 8).
	Split8 affinity.Split8Config
	// TableEntries bounds the affinity cache; 0 selects an unbounded
	// table (the §4.1 idealisation). The paper's Table 2 uses 8192.
	TableEntries int
	// TableLimit caps the unbounded table (TableEntries == 0) so hostile
	// or enormous traces degrade (oldest entries dropped, counted in
	// TableDropped) instead of exhausting host memory. 0 applies
	// DefaultTableLimit; negative means truly unlimited.
	TableLimit int
	// TableWays is the affinity-cache associativity (paper: 4, skewed).
	TableWays int
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
		Ways:         4,
		Split:        affinity.Table2Config(),
		TableEntries: 8192,
		TableWays:    4,
	}
}

// ConfigForCores returns a Table2-style controller for 2, 4 or 8 cores.
// The affinity cache scales with the aggregate L2 capacity, as §3.5
// prescribes ("the affinity cache size should be proportional to the
// total on-chip L2 capacity"): 2048 entries per core at 25% sampling.
func ConfigForCores(cores int) (Config, error) {
	cfg := Table2Config()
	cfg.TableEntries = 2048 * cores
	switch cores {
	case 2:
		cfg.Ways = 2
		cfg.Split2 = affinity.MechConfig{WindowSize: 128, AffinityBits: 16, FilterBits: 18}
		cfg.Split2SampleLimit = 8
	case 4:
		// Table2Config defaults.
	case 8:
		cfg.Ways = 8
		cfg.Split8 = affinity.Table2Split8Config()
	default:
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

// Controller tracks the active core and decides migrations.
type Controller struct {
	split  affinity.Splitter
	table  affinity.Table
	active int
	// noFiltering and ptrOnly mirror immutable Config switches.
	//emlint:nosnapshot configuration; states restore into identically configured controllers
	noFiltering bool
	//emlint:nosnapshot configuration; states restore into identically configured controllers
	ptrOnly bool

	// Migrations counts executed migrations.
	Migrations uint64
	// Requests counts L1-miss requests observed.
	Requests uint64
	// L2MissUpdates counts transition-filter updates (= L2 misses seen,
	// minus those skipped by pointer-load filtering).
	L2MissUpdates uint64

	// lastMigRequests is the Requests value at the most recent migration,
	// the reference point of the migration-gap histogram.
	lastMigRequests uint64

	// probes carry the telemetry the controller keeps no field for (the
	// zero value is a no-op).
	//emlint:nosnapshot observational handles; counter values live in the owning telemetry registry
	probes Probes
}

// Counters addresses a policy's own event counters: the fields a
// telemetry registry exposes as views (telemetry.Registry.View), so the
// policy's one increment per event is the metric's only update and the
// policy's own checkpointed state restores it.
type Counters struct {
	Requests, L2MissUpdates *uint64
	// Deferred counts migrations a policy wanted but withheld (the NUMA
	// policy's distance hysteresis); nil for policies that never defer.
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

// Counters implements Policy.
func (c *Controller) Counters() Counters {
	return Counters{Requests: &c.Requests, L2MissUpdates: &c.L2MissUpdates, Cache: c.AffinityCache()}
}

// SetProbes wires telemetry hooks into the controller and its affinity
// table. Call once, before driving references.
func (c *Controller) SetProbes(p Probes) {
	c.probes = p
	setTableProbes(c.table, p.Table)
}

// setTableProbes forwards table probes to an unbounded table; a bounded
// cache counts in its own fields.
func setTableProbes(t affinity.Table, p affinity.TableProbes) {
	if u, ok := t.(*affinity.Unbounded); ok {
		u.Probes = p
	}
}

// newSplitter builds the affinity machinery — table plus splitter — a
// Config describes. It is the shared substrate of every affinity-based
// policy: the Michaud controller and the NUMA policy construct
// identical machinery and differ only in the migration decision layered
// on top.
func newSplitter(cfg Config) (affinity.Splitter, affinity.Table, error) {
	var table affinity.Table
	if cfg.TableEntries == 0 {
		limit := cfg.TableLimit
		if limit == 0 {
			limit = DefaultTableLimit
		}
		table = affinity.NewUnboundedLimit(limit) // negative limit → unlimited
	} else {
		ways := cfg.TableWays
		if ways == 0 {
			ways = 4
		}
		if ways < 1 || cfg.TableEntries < ways || cfg.TableEntries%ways != 0 ||
			!isPow2(cfg.TableEntries/ways) {
			return nil, nil, fmt.Errorf("migration: affinity cache of %d entries / %d ways is not ways × power-of-two sets",
				cfg.TableEntries, ways)
		}
		table = affinity.NewCache(cfg.TableEntries, ways)
	}
	var split affinity.Splitter
	switch cfg.Ways {
	case 2:
		mc := cfg.Split2
		if mc.WindowSize == 0 {
			mc = affinity.MechConfig{WindowSize: 128, AffinityBits: 16, FilterBits: 18}
		}
		if err := mc.Validate(); err != nil {
			return nil, nil, err
		}
		if err := checkSampleLimit(cfg.Split2SampleLimit, true); err != nil {
			return nil, nil, err
		}
		s2 := affinity.NewSplitter2(mc, table)
		if cfg.Split2SampleLimit != 0 {
			if err := s2.SetSampleLimit(cfg.Split2SampleLimit); err != nil {
				return nil, nil, err
			}
		}
		split = s2
	case 0, 4:
		sc := cfg.Split
		if sc.X.WindowSize == 0 {
			sc = affinity.Table2Config()
		}
		if err := sc.X.Validate(); err != nil {
			return nil, nil, err
		}
		if err := sc.Y.Validate(); err != nil {
			return nil, nil, err
		}
		if err := checkSampleLimit(sc.SampleLimit, false); err != nil {
			return nil, nil, err
		}
		split = affinity.NewSplitter4(sc, table)
	case 8:
		sc := cfg.Split8
		if sc.X.WindowSize == 0 {
			sc = affinity.Table2Split8Config()
		}
		for _, mc := range []affinity.MechConfig{sc.X, sc.Y, sc.Z} {
			if err := mc.Validate(); err != nil {
				return nil, nil, err
			}
		}
		if err := checkSampleLimit(sc.SampleLimit, false); err != nil {
			return nil, nil, err
		}
		split = affinity.NewSplitter8(sc, table)
	default:
		return nil, nil, fmt.Errorf("migration: unsupported Ways %d (want 2, 4 or 8)", cfg.Ways)
	}
	return split, table, nil
}

// NewController builds a controller. Configuration problems — an
// unsupported way count, a malformed mechanism or table shape — come
// back as errors; MustNewController wraps them in a panic for call
// sites with compile-time-constant configurations.
func NewController(cfg Config) (*Controller, error) {
	split, table, err := newSplitter(cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{
		split:       split,
		table:       table,
		noFiltering: cfg.NoL2Filtering,
		ptrOnly:     cfg.PointerLoadsOnly,
	}, nil
}

// MustNewController is NewController panicking on error, for constant
// configurations.
func MustNewController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// checkSampleLimit validates a §3.5 sampling limit; zeroOK admits 0 as
// "sampling disabled" (the 2-way splitter's convention).
func checkSampleLimit(limit uint32, zeroOK bool) error {
	if limit == 0 && zeroOK {
		return nil
	}
	if limit == 0 || limit > 31 {
		return fmt.Errorf("migration: sample limit %d out of [1,31]", limit)
	}
	return nil
}

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
		sub := c.split.Ref(line, true)
		if sub != c.active {
			c.active = sub
			c.noteMigration()
			return sub, true
		}
		return sub, false
	}
	c.split.Ref(line, false)
	return c.active, false
}

// OnL2Miss commits the pending transition-filter update for the most
// recent request (L2 filtering, §3.4) and returns the designated core.
// isPointerLoad marks requests issued by pointer loads; with
// PointerLoadsOnly set, other requests skip the filter update (§6).
// If the designated core differs from the active one, the controller
// migrates.
func (c *Controller) OnL2Miss(isPointerLoad bool) (core int, migrated bool) {
	if c.ptrOnly && !isPointerLoad {
		return c.active, false
	}
	c.L2MissUpdates++
	sub := c.split.CommitLastFilter()
	if sub != c.active {
		c.active = sub
		c.noteMigration()
		return sub, true
	}
	return sub, false
}

// noteMigration accounts one executed migration: the counter, and the
// gap (in L1-miss requests) since the previous migration.
func (c *Controller) noteMigration() {
	c.Migrations++
	c.probes.MigrationGap.Observe(c.Requests - c.lastMigRequests)
	c.lastMigRequests = c.Requests
}

// NearMigration reports whether any deciding transition filter is
// within frac of a sign change (§6: "broadcast register updates only
// when the transition filter absolute value falls below a certain
// threshold, as it indicates a possible migration").
func (c *Controller) NearMigration(frac float64) bool {
	return c.split.MinFilterFraction() < frac
}

// Splitter exposes the underlying splitter (instrumentation).
func (c *Controller) Splitter() affinity.Splitter { return c.split }

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

// ControllerState is the serialisable state of a Controller, used by
// the machine checkpoint/resume path.
type ControllerState struct {
	Split  affinity.SplitterState
	Table  affinity.TableState
	Active int

	Migrations, Requests, L2MissUpdates uint64
	// LastMigRequests preserves the migration-gap reference point.
	// Checkpoints written before it existed decode it as zero, which
	// only widens the first post-resume gap observation.
	LastMigRequests uint64
}

// State returns a deep copy of the controller's state.
func (c *Controller) State() (ControllerState, error) {
	ts, err := affinity.CaptureTableState(c.table)
	if err != nil {
		return ControllerState{}, err
	}
	return ControllerState{
		Split:           c.split.State(),
		Table:           ts,
		Active:          c.active,
		Migrations:      c.Migrations,
		Requests:        c.Requests,
		L2MissUpdates:   c.L2MissUpdates,
		LastMigRequests: c.lastMigRequests,
	}, nil
}

// SetState restores a previously captured state. The receiving
// controller must have been built from the same Config.
func (c *Controller) SetState(st ControllerState) error {
	if st.Active < 0 || st.Active >= c.split.Ways() {
		return fmt.Errorf("migration: state active core %d out of %d ways", st.Active, c.split.Ways())
	}
	if err := c.split.SetState(st.Split); err != nil {
		return err
	}
	if err := affinity.RestoreTableState(c.table, st.Table); err != nil {
		return err
	}
	c.active = st.Active
	c.Migrations = st.Migrations
	c.Requests = st.Requests
	c.L2MissUpdates = st.L2MissUpdates
	c.lastMigRequests = st.LastMigRequests
	return nil
}
