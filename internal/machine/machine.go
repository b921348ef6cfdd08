// Package machine implements the paper's multi-core machine model (§2):
// per-core IL1/DL1 and L2 caches, a shared L3 (modelled as infinite —
// the paper counts L2 misses and treats L2-to-L2 misses and L3 hits
// alike), the migration-mode coherence protocol of §2.1 (modified-bit
// discipline with an update bus keeping inactive copies valid), L1
// mirroring (§2.3), and the migration controller hookup with L2
// filtering (§3.4).
//
// The model is trace-driven and event-counting, like the paper's
// simulator: it implements mem.BatchSink, consumes a workload's
// reference stream, and reports the event counts behind Tables 1 and 2.
// Group.AccessBatch is its one event kernel, run over one or more
// machines that share an L1 front end (a standalone Machine is a group
// of one); Access and Instr forward into it one record at a time. Each
// count lives in one place: the telemetry registry reads the Stats
// fields (and the policy's own counters) as views instead of keeping
// copies.
package machine

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// Config describes a machine.
type Config struct {
	// Cores is the number of cores (paper: 4 in migration mode; a
	// 1-core machine is the "normal" baseline).
	Cores int
	// LineShift is log2 of the cache-line size (paper: 6).
	LineShift uint
	// IL1 and DL1 are the per-core L1 organisations (paper: 16 KB,
	// 4-way). L1 content is mirrored across cores (§2.3), so one
	// physical copy is simulated.
	IL1, DL1 cache.Geometry
	// L2 is the per-core L2 organisation (paper: 512 KB, 4-way
	// skewed-associative).
	L2 cache.Geometry
	// Migration, when non-nil, enables migration mode with this
	// controller configuration. The controller's Ways must equal Cores.
	Migration *migration.Config
	// Policy names the migration policy driving the machine ("" or
	// "michaud" selects the paper's affinity controller; see
	// migration.PolicyNames for the registry). Only meaningful with
	// Migration set.
	Policy string
	// Topology, when non-nil, is the core-distance matrix handed to
	// distance-aware policies (nil = the paper's uniform chip). Only
	// meaningful with Migration set.
	Topology *migration.Topology
	// L3, when non-nil, models a finite shared L3 behind the L2s
	// (write-back); L3 misses count as memory accesses. When nil the L3
	// is infinite, as the paper assumes (it never reports L3 misses).
	L3 *cache.Geometry
	// Prefetch, when non-nil, attaches a stream prefetcher to the L2
	// miss stream (prefetches land in the active core's L2) — the
	// substrate for the §6 prefetching-interaction study.
	Prefetch *prefetch.Config
	// BroadcastThreshold, when positive (0 < t ≤ 1), enables §6's
	// update-bus bandwidth optimisation: register updates are broadcast
	// only while some deciding transition filter is within t of a sign
	// change (a possible migration); otherwise they are coalesced in a
	// register-update cache whose content (RegisterSpillBytes) is
	// spilled on each migration.
	BroadcastThreshold float64
	// CountWriteThroughL2Misses includes L2 write-allocations triggered
	// by DL1-hit stores (§2.1's "write allocation in L2 may be triggered
	// even upon DL1 hits") in the headline L2-miss count. The paper's
	// counts are trace-driven from L1-miss requests, so the default
	// (false) reports them separately in Stats.WriteThroughL2Misses.
	CountWriteThroughL2Misses bool
}

// PaperL1 returns the paper's 16 KB 4-way L1 geometry.
func PaperL1() cache.Geometry { return cache.GeometryFor(16<<10, 6, 4, false) }

// PaperL2 returns the paper's 512 KB 4-way skewed-associative L2.
func PaperL2() cache.Geometry { return cache.GeometryFor(512<<10, 6, 4, true) }

// NormalConfig returns the 1-core baseline machine of Table 2's "L2
// miss" column.
func NormalConfig() Config {
	return Config{Cores: 1, LineShift: 6, IL1: PaperL1(), DL1: PaperL1(), L2: PaperL2()}
}

// MigrationConfig returns the paper's 4-core migration-mode machine of
// Table 2's "4xL2 miss" column.
func MigrationConfig() Config { return MigrationConfigN(4) }

// MigrationConfigN returns a Table2-style migration-mode machine with 2,
// 4 or 8 cores (§6: the scheme "works also on 2-core configurations"
// and extends to more). It panics on any other core count: front ends
// validate user-supplied counts before calling (see run.Spec.Validate),
// so a bad argument here is an internal invariant violation.
func MigrationConfigN(cores int) Config {
	cfg, err := MigrationConfigFor(cores)
	if err != nil {
		//emlint:allowpanic documented contract: front ends validate core counts; use MigrationConfigFor for user input
		panic(err)
	}
	return cfg
}

// MigrationConfigFor is MigrationConfigN returning an error instead of
// panicking, for user-supplied core counts (the experiment drivers
// validate one configuration up front and thread it through all jobs).
func MigrationConfigFor(cores int) (Config, error) {
	mc, err := migration.ConfigForCores(cores)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Cores: cores, LineShift: 6,
		IL1: PaperL1(), DL1: PaperL1(), L2: PaperL2(),
		Migration: &mc,
	}, nil
}

// MigrationConfigScenario is MigrationConfigFor extended with a policy
// and topology selection, the front ends' single entry point for
// -policy/-topology flags. Default spellings normalise away — policy
// "michaud" to "" and topology "uniform" to nil — so a run that names
// the defaults explicitly is configuration-identical (and therefore
// output- and checkpoint-byte-identical) to one that names nothing.
func MigrationConfigScenario(cores int, policy, topology string) (Config, error) {
	cfg, err := MigrationConfigFor(cores)
	if err != nil {
		return Config{}, err
	}
	if policy == migration.PolicyMichaud {
		policy = ""
	}
	if !migration.ValidPolicy(policy) {
		return Config{}, fmt.Errorf("machine: unknown policy %q (have %v)", policy, migration.PolicyNames())
	}
	cfg.Policy = policy
	if topology != "" && topology != migration.TopologyUniform {
		topo, err := migration.NewTopology(topology, cores)
		if err != nil {
			return Config{}, fmt.Errorf("machine: %w", err)
		}
		cfg.Topology = topo
	} else if !migration.ValidTopology(topology) {
		return Config{}, fmt.Errorf("machine: unknown topology %q (have %v)", topology, migration.TopologyNames())
	}
	return cfg, nil
}

// Stats are the event counts the machine accumulates. All counts are
// events, not cycles; Table 2 reports instructions-per-event.
type Stats struct {
	Instructions uint64
	IFetches     uint64
	Loads        uint64
	Stores       uint64

	// IL1Misses and DL1Misses count L1-miss requests (the stream the
	// migration controller monitors). Store misses count toward
	// DL1Misses (non-write-allocate: no DL1 fill).
	IL1Misses, DL1Misses uint64

	// L2Hits counts active-L2 hits; L2HitsAfterMigration counts the
	// subset that hit only because the request migrated.
	L2Hits               uint64
	L2HitsAfterMigration uint64
	// L2Misses counts requests that had to fetch from beyond the active
	// L2 (L2-to-L2 or L3 — the paper does not distinguish, §2.1).
	L2Misses uint64
	// L2ToL2 counts fetches satisfied by a modified remote copy
	// (forwarded and simultaneously written back, §2.1).
	L2ToL2 uint64
	// L3Writebacks counts modified lines written back to L3 (evictions
	// + forward-writebacks).
	L3Writebacks uint64
	// WriteThroughL2Misses counts L2 write-allocations from DL1-hit
	// stores when CountWriteThroughL2Misses is false.
	WriteThroughL2Misses uint64

	Migrations uint64

	// L3Hits/L3Misses/MemWritebacks are populated only with a finite L3
	// configured: L2 misses that hit/missed the shared L3, and modified
	// L3 victims written to memory.
	L3Hits, L3Misses, MemWritebacks uint64

	// PrefetchIssued/PrefetchUseful are populated only with a
	// prefetcher configured: lines inserted ahead of demand, and the
	// subset later hit by a demand request before eviction.
	PrefetchIssued, PrefetchUseful uint64

	// UpdateBusBytes approximates §2.3's update-bus traffic: ~9 bytes
	// per retired instruction (register ids + values amortised) plus 16
	// bytes per store (address + value). With BroadcastThreshold set,
	// register bytes are counted only near potential migrations, plus
	// RegisterSpillBytes per migration (§6's optimisation).
	UpdateBusBytes uint64
	// SuppressedRegBytes counts register-update bytes the §6 threshold
	// gating kept off the bus.
	SuppressedRegBytes uint64
	// L1BroadcastBytes counts line broadcasts to inactive L1s (§2.3):
	// one line per L1 fill.
	L1BroadcastBytes uint64

	// AffinityTableDropped counts affinity-table entries evicted by the
	// unbounded table's memory cap (migration.Config.TableLimit).
	// Populated by FinalStats; zero while the run is in flight.
	AffinityTableDropped uint64
}

// PerInstr returns instructions per event, the paper's Table 2 metric
// (higher is better). Returns +Inf-like large value as 0-guard: when the
// event never occurred it returns 0 and false.
func (s Stats) PerInstr(events uint64) (float64, bool) {
	if events == 0 {
		return 0, false
	}
	return float64(s.Instructions) / float64(events), true
}

// L1Misses returns the combined L1-miss request count.
func (s Stats) L1Misses() uint64 { return s.IL1Misses + s.DL1Misses }

// Outcome converts the stats into the migration package's normalised
// form.
func (s Stats) Outcome() migration.Outcome {
	return migration.Outcome{
		Instructions: s.Instructions,
		L2Misses:     s.L2Misses,
		Migrations:   s.Migrations,
	}
}

// Metric names registered by every Machine. The first group reads the
// headline Stats fields (refs excepted, which Stats does not keep); the
// controller group exists only in migration mode. Keeping the names
// exported lets front ends and tests address timeline/snapshot entries
// without string literals.
const (
	MetricInstructions = "instructions"
	MetricRefs         = "refs"
	MetricIL1Misses    = "il1_misses"
	MetricDL1Misses    = "dl1_misses"
	MetricL2Hits       = "l2_hits"
	MetricL2Misses     = "l2_misses"
	MetricMigrations   = "migrations"

	MetricCtrlRequests      = "ctrl_requests"
	MetricCtrlFilterUpdates = "ctrl_filter_updates"
	// MetricMigrationsDeferred counts migrations a distance-aware policy
	// wanted but withheld; registered only for such policies.
	MetricMigrationsDeferred = "migrations_deferred"
	MetricAffinityHits       = "affinity_hits"
	MetricAffinityMisses     = "affinity_misses"
	MetricAffinityEvictions  = "affinity_evictions"
	// MetricMigrationGap is a histogram: per migration, the number of
	// L1-miss requests since the previous migration (bucket i>0 holds
	// gaps in [2^(i-1), 2^i)).
	MetricMigrationGap = "migration_gap"
)

// Machine is the simulated multi-core. It implements mem.BatchSink.
type Machine struct {
	cfg Config
	// il1 and dl1 are mirrored across cores: one physical copy, owned
	// by the machine's Group and shared by every member of it.
	il1 *cache.SetAssoc
	dl1 *cache.SetAssoc
	//emlint:nosnapshot the L1 front end and member list; the L1 state restores through il1/dl1
	grp *Group
	l2  []*cache.SetAssoc
	// own indexes the modified copies of the L2s; nil with one core,
	// where no remote copy exists. Aliased with l2 by Cluster.
	//emlint:nosnapshot derived from the L2 flags; Restore rebuilds it
	own *owners
	l3  *cache.SetAssoc // nil = infinite L3 (the paper's assumption)
	pf  *prefetch.Prefetcher
	// pol is the migration policy (nil in normal mode). The default is
	// the paper's Michaud controller; see Config.Policy.
	//emlint:nosnapshot non-default policy state rides the EMCKPT1 extension via PolicyState/SetPolicyState; the Michaud default serialises through ctrl into Snapshot.Controller
	pol migration.Policy
	// ctrl devirtualizes pol when it is the Michaud controller: the
	// policy methods run once per L1 miss, and the concrete call keeps
	// the default configuration's hot path free of interface dispatch.
	// Nil under non-default policies, which pay the itab lookup.
	ctrl *migration.Controller

	tel *telemetry.Registry
	// refs counts references: the one registry-owned machine counter,
	// as Stats keeps no total.
	//emlint:nosnapshot observational handle into tel; its value restores through Snapshot.Telemetry
	refs telemetry.Counter

	active int
	Stats  Stats
}

// Validate rejects malformed configurations: a bad core count or cache
// geometry. (Migration-controller problems surface in New, which
// actually constructs the controller.) Experiment drivers validate one
// configuration up front and thread it through all their jobs.
func (cfg Config) Validate() error {
	if cfg.Cores < 1 {
		return fmt.Errorf("machine: need at least one core, got %d", cfg.Cores)
	}
	for _, g := range []struct {
		name string
		geo  cache.Geometry
	}{{"IL1", cfg.IL1}, {"DL1", cfg.DL1}, {"L2", cfg.L2}} {
		if err := g.geo.Validate(); err != nil {
			return fmt.Errorf("machine: %s: %w", g.name, err)
		}
	}
	if cfg.L3 != nil {
		if err := cfg.L3.Validate(); err != nil {
			return fmt.Errorf("machine: L3: %w", err)
		}
	}
	if cfg.Migration == nil {
		if cfg.Policy != "" {
			return fmt.Errorf("machine: policy %q without migration mode", cfg.Policy)
		}
		if cfg.Topology != nil {
			return fmt.Errorf("machine: topology %q without migration mode", cfg.Topology.Name)
		}
	} else if !migration.ValidPolicy(cfg.Policy) {
		return fmt.Errorf("machine: unknown policy %q (have %v)", cfg.Policy, migration.PolicyNames())
	}
	// The modified-owner index packs a line and its owner core into one
	// 64-bit slot, which the line-offset bits must make room for.
	if cfg.Cores > 1 && ownerBits(cfg.Cores) > cfg.LineShift {
		return fmt.Errorf("machine: %d cores need a line shift of at least %d, got %d", cfg.Cores, ownerBits(cfg.Cores), cfg.LineShift)
	}
	return nil
}

// New builds a machine. Malformed configurations — a bad core count,
// geometry, or migration setup — come back as errors; MustNew wraps
// them in a panic for call sites with compile-time-constant
// configurations.
func New(cfg Config) (*Machine, error) {
	g, err := NewGroup(cfg)
	if err != nil {
		return nil, err
	}
	return g.ms[0], nil
}

// newMachine builds a machine as a member of group g, on g's L1s.
func newMachine(cfg Config, g *Group) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, il1: g.il1, dl1: g.dl1, grp: g}
	for i := 0; i < cfg.Cores; i++ {
		m.l2 = append(m.l2, cache.NewSetAssoc(cfg.L2))
	}
	if cfg.Cores > 1 {
		m.own = newOwners(cfg.Cores)
	}
	if cfg.L3 != nil {
		m.l3 = cache.NewSetAssoc(*cfg.L3)
	}
	if cfg.Prefetch != nil {
		m.pf = prefetch.New(*cfg.Prefetch)
	}
	if cfg.Migration != nil {
		pol, err := migration.NewPolicy(cfg.Policy, *cfg.Migration, cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.pol = pol
		m.ctrl, _ = pol.(*migration.Controller)
		if w := m.pol.Ways(); w != cfg.Cores {
			return nil, fmt.Errorf("machine: %d cores but a %d-way migration policy", cfg.Cores, w)
		}
	}
	m.instrument()
	return m, nil
}

// instrument registers the machine's metrics. Counts an owner already
// keeps — the Stats fields, the policy's counters, the bounded affinity
// cache's tallies — are views onto that field; only refs, the
// migration-gap histogram and the unbounded table's counters are
// registry-owned. The registration order is part of the checkpoint and
// timeline byte format.
func (m *Machine) instrument() {
	t := telemetry.NewRegistry()
	m.tel = t
	t.MustView(MetricInstructions, &m.Stats.Instructions)
	m.refs = t.MustCounter(MetricRefs)
	t.MustView(MetricIL1Misses, &m.Stats.IL1Misses)
	t.MustView(MetricDL1Misses, &m.Stats.DL1Misses)
	t.MustView(MetricL2Hits, &m.Stats.L2Hits)
	t.MustView(MetricL2Misses, &m.Stats.L2Misses)
	t.MustView(MetricMigrations, &m.Stats.Migrations)
	if m.pol == nil {
		return
	}
	pc := m.pol.Counters()
	t.MustView(MetricCtrlRequests, pc.Requests)
	t.MustView(MetricCtrlFilterUpdates, pc.L2MissUpdates)
	pr := migration.Probes{MigrationGap: t.MustHistogram(MetricMigrationGap)}
	if c := pc.Cache; c != nil {
		t.MustView(MetricAffinityHits, &c.Hits)
		t.MustView(MetricAffinityMisses, &c.Misses)
		t.MustView(MetricAffinityEvictions, &c.Evictions)
	} else {
		pr.Table = affinity.TableProbes{
			Hits:      t.MustCounter(MetricAffinityHits),
			Misses:    t.MustCounter(MetricAffinityMisses),
			Evictions: t.MustCounter(MetricAffinityEvictions),
		}
	}
	// The deferral counter exists only for policies that can defer
	// (keeps the default Michaud metric set — and hence checkpoint
	// telemetry snapshots — exactly as before the policy layer).
	if pc.Deferred != nil {
		t.MustView(MetricMigrationsDeferred, pc.Deferred)
	}
	m.pol.SetProbes(pr)
}

// MustNew is New panicking on error, for constant configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// ActiveCore returns the core currently executing.
func (m *Machine) ActiveCore() int { return m.active }

// FinalStats returns the accumulated Stats with the end-of-run
// controller counters (affinity-table drops) folded in.
func (m *Machine) FinalStats() Stats {
	s := m.Stats
	if m.pol != nil {
		s.AffinityTableDropped = m.pol.TableDropped()
	}
	return s
}

// Policy returns the migration policy (nil in normal mode).
func (m *Machine) Policy() migration.Policy { return m.pol }

// Controller returns the Michaud migration controller, or nil when the
// machine runs in normal mode or under a different policy.
func (m *Machine) Controller() *migration.Controller { return m.ctrl }

// polOnRequest, polOnL2Miss and polNearMigration dispatch through the
// devirtualized Michaud pointer when the default policy runs; only
// non-default policies pay the interface call. Call only with a policy
// present. Small on purpose so they inline into the hot path.
func (m *Machine) polOnRequest(line mem.Line) (int, bool) {
	if m.ctrl != nil {
		return m.ctrl.OnRequest(line)
	}
	return m.pol.OnRequest(line)
}

func (m *Machine) polOnL2Miss(isPtrLoad bool) (int, bool) {
	if m.ctrl != nil {
		return m.ctrl.OnL2Miss(isPtrLoad)
	}
	return m.pol.OnL2Miss(isPtrLoad)
}

func (m *Machine) polNearMigration(frac float64) bool {
	if m.ctrl != nil {
		return m.ctrl.NearMigration(frac)
	}
	return m.pol.NearMigration(frac)
}

// WeightedMigrationCost returns the topology-weighted migration count:
// the sum of core distances over executed migrations for distance-aware
// policies, the raw migration count otherwise (every move costs 1 on
// the uniform chip). This is the `weighted` argument of
// migration.TimeModel.CyclesWeighted.
func (m *Machine) WeightedMigrationCost() float64 {
	if dw, ok := m.pol.(migration.DistanceWeighted); ok {
		return dw.WeightedMigrationCost()
	}
	return float64(m.Stats.Migrations)
}

// Telemetry returns the machine's metric registry. The registry is
// single-goroutine like the machine itself; cross-goroutine consumers
// take Snapshot copies.
func (m *Machine) Telemetry() *telemetry.Registry { return m.tel }

// RegisterSpillBytes is the §6 register-update-cache spill: the
// architectural register file (64 × 8 B values + identifiers).
const RegisterSpillBytes = 64*8 + 64

// spillRegisters accounts the catch-up broadcast a migration requires
// when register updates were being suppressed (§6).
func (m *Machine) spillRegisters() {
	if m.cfg.BroadcastThreshold > 0 {
		m.Stats.UpdateBusBytes += RegisterSpillBytes
	}
}

// request services an L1-miss request (§2.2's controller-visible path).
// isStore marks write-allocate semantics: the fetched/hit line becomes
// modified on the active core and loses its modified bit elsewhere.
//
//emlint:hotpath
func (m *Machine) request(line mem.Line, isStore, isPtrLoad bool) {
	if m.pol != nil {
		if core, migrated := m.polOnRequest(line); migrated {
			// Only possible with NoL2Filtering (ablation): the filter
			// moved on the request itself.
			m.Stats.Migrations++
			m.active = core
			m.spillRegisters()
		}
	}
	l2 := m.l2[m.active]
	if h, ok := l2.Probe(line); ok {
		m.Stats.L2Hits++
		m.notePrefetchHit(l2, h)
		if isStore {
			m.markModified(l2, h, line)
		}
		return
	}
	// Active-L2 miss: with L2 filtering the transition filter moves now,
	// and a migration may redirect the request (§3.4: "a migration can
	// happen only upon a L2 miss").
	if m.pol != nil {
		if core, migrated := m.polOnL2Miss(isPtrLoad); migrated {
			m.Stats.Migrations++
			m.active = core
			m.spillRegisters()
			l2 = m.l2[m.active]
			if h, ok := l2.Probe(line); ok {
				// The new active L2 holds the line: serviced locally
				// after the migration, no L3 access.
				m.Stats.L2Hits++
				m.Stats.L2HitsAfterMigration++
				m.notePrefetchHit(l2, h)
				if isStore {
					m.markModified(l2, h, line)
				}
				return
			}
		}
	}
	m.Stats.L2Misses++
	m.fetch(l2, line, isStore)
	m.prefetchAfterMiss(line)
}

// notePrefetchHit converts a prefetched line of the active L2 into a
// useful one the first time a demand request touches it.
//
//emlint:hotpath
func (m *Machine) notePrefetchHit(l2 *cache.SetAssoc, h cache.Handle) {
	if m.pf == nil {
		return
	}
	if f := l2.Flags(h); f&flagPrefetched != 0 {
		l2.SetFlags(h, f&^flagPrefetched)
		m.Stats.PrefetchUseful++
	}
}

// prefetchAfterMiss trains the stream prefetcher on the demand miss and
// inserts its predictions into the active L2.
func (m *Machine) prefetchAfterMiss(line mem.Line) {
	if m.pf == nil {
		return
	}
	l2 := m.l2[m.active]
	for _, pl := range m.pf.OnMiss(line) {
		if _, ok := l2.Lookup(pl); ok {
			continue
		}
		m.Stats.PrefetchIssued++
		_, victim := l2.Insert(pl, flagPrefetched)
		if victim.Valid && victim.Flags&cache.FlagModified != 0 {
			m.Stats.L3Writebacks++
			m.disown(victim.Line)
		}
	}
}

// storeThrough performs the write-through of a DL1-hit store: update the
// active L2 (allocating on miss — §2.1), set its modified bit, reset
// modified on inactive copies.
//
//emlint:hotpath
func (m *Machine) storeThrough(line mem.Line) {
	l2 := m.l2[m.active]
	if h, ok := l2.Probe(line); ok {
		m.markModified(l2, h, line)
		return
	}
	if m.cfg.CountWriteThroughL2Misses {
		m.Stats.L2Misses++
	} else {
		m.Stats.WriteThroughL2Misses++
	}
	m.fetch(l2, line, true)
}

// markModified sets the modified bit on the active core's copy h and
// resets it on the previous owner's copy, which stays valid — its
// content is refreshed over the update bus (§2.1). A copy that is
// already modified is the line's one modified copy, so there is
// nothing to reset.
//
//emlint:hotpath
func (m *Machine) markModified(l2 *cache.SetAssoc, h cache.Handle, line mem.Line) {
	f := l2.Flags(h)
	if f&cache.FlagModified != 0 {
		return
	}
	l2.SetFlags(h, f|cache.FlagModified)
	if m.own == nil {
		return
	}
	if prev, had := m.own.put(line, m.active); had {
		m.resetModified(prev, line)
	}
}

// resetModified clears the modified bit of core's copy of line.
//
//emlint:hotpath
func (m *Machine) resetModified(core int, line mem.Line) {
	l2 := m.l2[core]
	if h, ok := l2.Lookup(line); ok {
		l2.SetFlags(h, l2.Flags(h)&^cache.FlagModified)
	}
}

// disown drops an evicted modified line from the owner index.
//
//emlint:hotpath
func (m *Machine) disown(line mem.Line) {
	if m.own != nil {
		m.own.take(line)
	}
}

// fetch brings a line into the active L2 l2 from a modified remote copy
// (L2-to-L2, with simultaneous writeback) or from L3. Non-modified
// remote copies cannot be forwarded (§2.1) — the line is re-fetched
// from L3. The caller's last Probe of l2 missed on line.
//
//emlint:hotpath
func (m *Machine) fetch(l2 *cache.SetAssoc, line mem.Line, isStore bool) {
	if m.own != nil {
		// The active L2 missed, so an owner is a remote core: forward
		// with simultaneous writeback and reset its modified bit. That
		// copy was the only modified one, so a store's write has no
		// other copy to reset.
		if c, ok := m.own.take(line); ok {
			m.resetModified(c, line)
			m.Stats.L2ToL2++
			m.Stats.L3Writebacks++
		}
	}
	if m.l3 != nil {
		if _, ok := m.l3.Access(line); ok {
			m.Stats.L3Hits++
		} else {
			m.Stats.L3Misses++
			_, v3 := m.l3.Insert(line, 0)
			if v3.Valid && v3.Flags&cache.FlagModified != 0 {
				m.Stats.MemWritebacks++
			}
		}
	}
	var flags uint8
	if isStore {
		flags = cache.FlagModified
	}
	// The active L2's most recent Probe missed on this exact line (in
	// request or storeThrough), so the recorded candidates are reused.
	_, victim := l2.InsertProbed(line, flags)
	if victim.Valid && victim.Flags&cache.FlagModified != 0 {
		m.Stats.L3Writebacks++
		m.disown(victim.Line)
		if m.l3 != nil {
			if h3, ok := m.l3.Lookup(victim.Line); ok {
				m.l3.SetFlags(h3, m.l3.Flags(h3)|cache.FlagModified)
			} else {
				_, v3 := m.l3.Insert(victim.Line, cache.FlagModified)
				if v3.Valid && v3.Flags&cache.FlagModified != 0 {
					m.Stats.MemWritebacks++
				}
			}
		}
	}
	if isStore && m.own != nil {
		m.own.put(line, m.active)
	}
}

// flagPrefetched marks L2 lines inserted by the prefetcher and not yet
// touched by a demand request (usefulness accounting).
const flagPrefetched uint8 = 1 << 7
