package report

// Cross-policy tournaments and multiprogrammed runs: the scenario-space
// reports the pluggable policy layer opens up. A tournament runs every
// workload under every competing migration policy over one topology and
// renders a league table; a multiprogram run co-schedules K programs on
// one shared L2 complex and compares each program against its solo
// 1-core baseline. Both follow the package's determinism model: every
// job owns its machines and generators, rows come back in input order,
// and output is byte-identical for every worker count.

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TournamentConfig parameterises a cross-policy tournament.
type TournamentConfig struct {
	// Policies are the competing migration policies (registry names).
	Policies []string
	// Topology names the core-distance matrix ("" = uniform).
	Topology string
	// Cores is the migration machines' core count.
	Cores int
	// Budget is the per-run instruction budget.
	Budget uint64
	// Pmig is the reference migration penalty (in L3-penalty units) the
	// speedup column charges; 0 selects DefaultPmig.
	Pmig float64
}

// DefaultPmig is the tournament's reference migration penalty: 10 L3
// penalties per unit distance, comfortably below the paper's ≈60
// break-even on mcf so a working policy shows a speedup > 1.
const DefaultPmig = 10.0

// TournamentRow is one workload × policy cell of the league table.
type TournamentRow struct {
	Name   string
	Suite  string
	Policy string

	Normal   machine.Stats
	Migrated machine.Stats

	// WeightedCost is the topology-weighted migration count (= raw
	// migrations on the uniform chip); Deferred counts migrations the
	// policy's distance hysteresis withheld (0 for Michaud/never).
	WeightedCost float64
	Deferred     uint64

	// Ratio is migrated/baseline L2 miss-rate (<1 = the policy removed
	// misses); Speedup is the TimeModel's T(normal)/T(migrated) at the
	// configured Pmig, charging WeightedCost per migration.
	Ratio         float64
	Speedup       float64
	BreakEvenPmig float64
	HasMigrations bool
}

// TournamentBatch runs every workload × policy pairing on the worker
// pool: per workload, one grouped pass through the 1-core baseline and
// one migration machine per policy. Rows come back grouped by workload,
// policies in input order.
func TournamentBatch(reg *workloads.Registry, names []string, tc TournamentConfig, opt RunOptions) ([]TournamentRow, error) {
	if len(tc.Policies) == 0 {
		return nil, fmt.Errorf("report: tournament needs at least one policy")
	}
	cfgs := []machine.Config{machine.NormalConfig()}
	for _, pol := range tc.Policies {
		cfg, err := machine.MigrationConfigScenario(tc.Cores, pol, tc.Topology)
		if err != nil {
			return nil, fmt.Errorf("report: policy %q: %w", pol, err)
		}
		cfgs = append(cfgs, cfg)
	}
	passes, err := runGroups(names, cfgs, 0, workloadSources(reg, names, tc.Budget), opt)
	if err != nil {
		return nil, err
	}
	pmig := tc.Pmig
	if pmig == 0 {
		pmig = DefaultPmig
	}
	tm := migration.DefaultTimeModel()
	var rows []TournamentRow
	for _, p := range passes {
		baseline := p.ms[0].FinalStats()
		for k, pol := range tc.Policies {
			m := p.ms[1+k]
			row := TournamentRow{
				Name:         p.name,
				Suite:        p.suite,
				Policy:       pol,
				Normal:       baseline,
				Migrated:     m.FinalStats(),
				WeightedCost: m.WeightedMigrationCost(),
			}
			if c := m.Controller(); c != nil {
				row.Deferred = c.Deferred
			}
			nRate := float64(baseline.L2Misses) / float64(baseline.Instructions)
			mRate := float64(row.Migrated.L2Misses) / float64(row.Migrated.Instructions)
			if nRate > 0 {
				row.Ratio = mRate / nRate
			}
			row.Speedup = tm.Speedup(baseline.Outcome(), row.Migrated.Outcome(), pmig, row.WeightedCost)
			if be, ok := migration.MissesRemovedPerMigration(baseline.Outcome(), row.Migrated.Outcome()); ok {
				row.BreakEvenPmig = be
				row.HasMigrations = true
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTournament renders the league table: one line per workload ×
// policy, grouped by workload. The speedup column charges pmig (0 =
// DefaultPmig) per unit of weighted migration distance.
func FormatTournament(rows []TournamentRow, pmig float64) string {
	if pmig == 0 {
		pmig = DefaultPmig
	}
	t := stats.NewTable("benchmark", "policy", "L2 miss", "mig L2 miss", "ratio",
		"migration", "deferred", "wcost", fmt.Sprintf("speedup@%g", pmig))
	for _, r := range rows {
		mig := "-"
		if r.HasMigrations {
			mig = stats.PerEvent(r.Migrated.Instructions, r.Migrated.Migrations)
		}
		t.AddRow(r.Name, r.Policy,
			stats.PerEvent(r.Normal.Instructions, r.Normal.L2Misses),
			stats.PerEvent(r.Migrated.Instructions, r.Migrated.L2Misses),
			stats.Ratio(r.Ratio, 1),
			mig,
			fmt.Sprintf("%d", r.Deferred),
			stats.SciNotation(r.WeightedCost),
			stats.Ratio(r.Speedup, 1),
		)
	}
	return t.String()
}

// ProgramResultJSON is one program's outcome in a multiprogrammed run:
// its stats on the contended cluster, and its solo 1-core baseline.
type ProgramResultJSON struct {
	Workload string        `json:"workload"`
	Stats    machine.Stats `json:"stats"`
	Solo     machine.Stats `json:"solo"`
}

// MultiRunResultJSON is the canonical JSON shape of one multiprogrammed
// run.
type MultiRunResultJSON struct {
	Instr    uint64 `json:"instr"`
	Cores    int    `json:"cores"`
	Programs int    `json:"programs"`
	Policy   string `json:"policy,omitempty"`
	Topology string `json:"topology,omitempty"`

	PerProgram []ProgramResultJSON `json:"per_program"`
	Totals     machine.Stats       `json:"totals"`
}

// WriteMultiRunJSON encodes r deterministically.
func WriteMultiRunJSON(w io.Writer, r MultiRunResultJSON) error { return writeJSON(w, r) }

// MultiRun co-schedules the spec's programs on one shared-L2 cluster
// (serial, deterministically interleaved), runs each program's solo
// 1-core baseline on the worker pool, and assembles the combined
// result. Output is byte-identical for every opt.Workers value: the
// cluster pass is inherently serial and the solo jobs come back in
// input order. Every feed and every solo pass runs on a run.Stream that
// opt.Context stops, so a cancelled run returns within a batch or so.
func MultiRun(spec run.Spec, opt RunOptions) (MultiRunResultJSON, error) {
	if len(spec.Programs) == 0 {
		return MultiRunResultJSON{}, fmt.Errorf("report: multiprogram run needs at least one workload")
	}
	// Validating constructs every program's workload, so name typos
	// surface before the cluster spins up.
	if err := spec.Validate(); err != nil {
		return MultiRunResultJSON{}, err
	}
	cfg, err := spec.MigConfig()
	if err != nil {
		return MultiRunResultJSON{}, err
	}
	reg := spec.Workloads()
	cluster, err := machine.NewCluster(cfg, len(spec.Programs))
	if err != nil {
		return MultiRunResultJSON{}, err
	}
	ctx := opt.ctx()
	feeds := make([]machine.Feed, len(spec.Programs))
	for i, name := range spec.Programs {
		src := run.Spec{Workload: name, Instr: spec.Instr, Registry: reg}
		feeds[i] = func(sink mem.BatchSink) error {
			_, err := (&run.Stream{To: sink}).RunContext(ctx, src.Feed)
			return err
		}
	}
	if err := cluster.Run(feeds); err != nil {
		return MultiRunResultJSON{}, err
	}
	solo, err := runGroups(spec.Programs, []machine.Config{machine.NormalConfig()}, 0,
		workloadSources(reg, spec.Programs, spec.Instr), opt)
	if err != nil {
		return MultiRunResultJSON{}, err
	}
	res := MultiRunResultJSON{
		Instr:    spec.Instr,
		Cores:    spec.Cores,
		Programs: len(spec.Programs),
		Policy:   cfg.Policy,
		Totals:   cluster.Totals(),
	}
	if cfg.Topology != nil {
		res.Topology = cfg.Topology.Name
	}
	for i, name := range spec.Programs {
		res.PerProgram = append(res.PerProgram, ProgramResultJSON{
			Workload: name,
			Stats:    cluster.Program(i).FinalStats(),
			Solo:     solo[i].ms[0].FinalStats(),
		})
	}
	return res, nil
}

// FormatMultiRun renders the multiprogrammed run: one line per program
// comparing its contended L2 miss rate against its solo baseline, and a
// totals line.
func FormatMultiRun(r MultiRunResultJSON) string {
	t := stats.NewTable("program", "workload", "instr(M)", "L2 miss", "solo L2 miss", "slowdown", "migration")
	for i, p := range r.PerProgram {
		// Contention slowdown proxy: contended L2 miss rate over solo
		// miss rate (>1 = sharing cost misses).
		slow := "-"
		soloRate := float64(p.Solo.L2Misses) / float64(p.Solo.Instructions)
		rate := float64(p.Stats.L2Misses) / float64(p.Stats.Instructions)
		if soloRate > 0 {
			slow = stats.Ratio(rate/soloRate, 1)
		}
		mig := "-"
		if p.Stats.Migrations > 0 {
			mig = stats.PerEvent(p.Stats.Instructions, p.Stats.Migrations)
		}
		t.AddRow(fmt.Sprintf("P%d", i), p.Workload,
			stats.Millions(p.Stats.Instructions),
			stats.PerEvent(p.Stats.Instructions, p.Stats.L2Misses),
			stats.PerEvent(p.Solo.Instructions, p.Solo.L2Misses),
			slow, mig)
	}
	t.AddRow("total", "-", stats.Millions(r.Totals.Instructions),
		stats.PerEvent(r.Totals.Instructions, r.Totals.L2Misses), "-", "-", "-")
	return t.String()
}
