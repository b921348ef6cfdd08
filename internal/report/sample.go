package report

// Interval-sampling driver: the one entry point every surface (emsim
// -sample, emsimd sampled runs, tables -sample) goes through, so all of
// them emit byte-identical estimates for the same configuration. The
// pipeline is profile -> cluster -> plan -> simulate -> reconstruct,
// all in internal/sampling, fed by the run engine's Input; this file
// owns the canonical JSON shape and the text rendering.

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/run"
	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SampleConfig parameterises one sampled run.
type SampleConfig struct {
	// Workload names the synthetic workload; Replay names a recorded
	// trace instead (exactly one must be set).
	Workload string
	Replay   string
	// Instr is the instruction budget (workload runs only; a trace
	// replays in full).
	Instr uint64
	// Cores is the migration machine's core count.
	Cores int
	// Policy and Topology are the normalized scenario names ("" for the
	// Michaud default / uniform chip), as MigrationConfigScenario
	// normalizes them.
	Policy   string
	Topology string
	// Interval is the instructions-per-interval cut size.
	Interval uint64
	// Clusters is the requested cluster count K (clamped to the
	// interval count).
	Clusters int
	// Seed seeds the k-medoids clustering.
	Seed uint64
	// Warmup is the number of unmeasured intervals delivered before
	// each cold chain start.
	Warmup int
}

// SampleParamsJSON echoes the sampling parameters into the result.
type SampleParamsJSON struct {
	Interval uint64 `json:"interval"`
	Clusters int    `json:"clusters"`
	Seed     uint64 `json:"seed"`
	Warmup   int    `json:"warmup"`
}

// SampleResultJSON is the canonical JSON shape of one sampled run. The
// Estimated marker is load-bearing: nothing in this shape is a measured
// full-run number except the profile-pass totals (Events, TotalInstr).
type SampleResultJSON struct {
	Workload string `json:"workload,omitempty"`
	Replay   string `json:"replay,omitempty"`
	Instr    uint64 `json:"instr"`
	Cores    int    `json:"cores"`
	Policy   string `json:"policy,omitempty"`
	Topology string `json:"topology,omitempty"`

	Estimated bool             `json:"estimated"`
	Sample    SampleParamsJSON `json:"sample"`

	// Events and TotalInstr are exact (counted by the profiling pass).
	Events     uint64 `json:"events"`
	TotalInstr uint64 `json:"total_instr"`
	// Intervals is the interval count M; MeasuredIntervals how many ran
	// at full fidelity; ClustersUsed the non-empty cluster count (can
	// fall below the requested K when signatures repeat).
	Intervals         int `json:"intervals"`
	MeasuredIntervals int `json:"measured_intervals"`
	ClustersUsed      int `json:"clusters_used"`
	// SimulatedEvents counts events delivered to machines across all
	// chains (warmup + gaps + measured); Savings = Events/SimulatedEvents.
	SimulatedEvents uint64  `json:"simulated_events"`
	Savings         float64 `json:"savings"`
	// ProfileStackDropped is nonzero when the capped profiling stack
	// evicted lines (cold-attribution in signatures is then approximate).
	ProfileStackDropped uint64 `json:"profile_stack_dropped,omitempty"`

	Estimates []sampling.Estimate `json:"estimates"`
}

// WriteSampleJSON encodes r deterministically.
func WriteSampleJSON(w io.Writer, r SampleResultJSON) error {
	return writeJSON(w, r)
}

// sampleSource is the deterministic event source both passes (and
// every chain job) replay. Each call opens the trace or constructs the
// workload afresh, so concurrent chain jobs never share generator
// state.
func sampleSource(reg *workloads.Registry, cfg SampleConfig) sampling.Source {
	return run.Input{Workload: cfg.Workload, Replay: cfg.Replay, Instr: cfg.Instr, Registry: reg}.Feed
}

// SampleRun executes the full sampling pipeline and returns the
// canonical result. Deterministic for a fixed configuration and seed:
// the profile pass is serial, clustering and planning are seeded and
// ordered, and the chain jobs merge in index order for every Workers
// value.
func SampleRun(reg *workloads.Registry, cfg SampleConfig, opt RunOptions) (SampleResultJSON, error) {
	if cfg.Interval == 0 {
		return SampleResultJSON{}, fmt.Errorf("report: sample interval must be positive")
	}
	if cfg.Clusters < 1 {
		return SampleResultJSON{}, fmt.Errorf("report: sample cluster count must be positive")
	}
	normalCfg := machine.NormalConfig()
	migCfg, err := machine.MigrationConfigScenario(cfg.Cores, cfg.Policy, cfg.Topology)
	if err != nil {
		return SampleResultJSON{}, err
	}
	src := sampleSource(reg, cfg)

	prof, err := sampling.NewProfiler(cfg.Interval, normalCfg.LineShift)
	if err != nil {
		return SampleResultJSON{}, err
	}
	if err := src(prof); err != nil {
		return SampleResultJSON{}, err
	}
	intervals := prof.Finish()
	if len(intervals) == 0 {
		return SampleResultJSON{}, fmt.Errorf("report: input stream produced no events to sample")
	}

	cl := sampling.Cluster(intervals, cfg.Clusters, cfg.Seed)
	plan := sampling.NewPlan(intervals, cl, cfg.Warmup)
	sim, err := sampling.Simulate(opt.ctx(), src, intervals, plan, sampling.SimConfig{
		Normal:  normalCfg,
		Mig:     migCfg,
		Workers: opt.Workers,
	})
	if err != nil {
		return SampleResultJSON{}, err
	}

	r := SampleResultJSON{
		Workload: cfg.Workload,
		Replay:   cfg.Replay,
		Instr:    cfg.Instr,
		Cores:    cfg.Cores,
		Policy:   cfg.Policy,
		Topology: cfg.Topology,

		Estimated: true,
		Sample: SampleParamsJSON{
			Interval: cfg.Interval,
			Clusters: cfg.Clusters,
			Seed:     cfg.Seed,
			Warmup:   cfg.Warmup,
		},
		Events:              prof.Events(),
		TotalInstr:          prof.TotalInstr(),
		Intervals:           len(intervals),
		MeasuredIntervals:   len(plan.Measured),
		ClustersUsed:        cl.K(),
		SimulatedEvents:     sim.DeliveredEvents,
		ProfileStackDropped: prof.StackDropped(),
		Estimates:           sampling.Estimates(plan, sim, prof.TotalInstr()),
	}
	if sim.DeliveredEvents > 0 {
		r.Savings = float64(prof.Events()) / float64(sim.DeliveredEvents)
	}
	return r, nil
}

// SampleFullStats runs the same configuration at full fidelity (the
// -sample-verify reference): two independent passes over the source,
// one per machine, on the worker pool. The source is deterministic, so
// the stats are identical to a single teed pass.
func SampleFullStats(reg *workloads.Registry, cfg SampleConfig, opt RunOptions) (normal, mig machine.Stats, err error) {
	normalCfg := machine.NormalConfig()
	migCfg, err := machine.MigrationConfigScenario(cfg.Cores, cfg.Policy, cfg.Topology)
	if err != nil {
		return machine.Stats{}, machine.Stats{}, err
	}
	src := sampleSource(reg, cfg)
	cfgs := []machine.Config{normalCfg, migCfg}
	halves, err := runner.Map(opt.ctx(), len(cfgs), opt.config(func(i int) string {
		return []string{"full (1-core)", "full (migration)"}[i]
	}), func(_ context.Context, i int) (machine.Stats, error) {
		m, err := machine.New(cfgs[i])
		if err != nil {
			return machine.Stats{}, err
		}
		if err := src(m); err != nil {
			return machine.Stats{}, err
		}
		return m.FinalStats(), nil
	})
	if err != nil {
		return machine.Stats{}, machine.Stats{}, err
	}
	return halves[0], halves[1], nil
}

// SampleBatch runs the sampled experiment for each named workload on
// the worker pool, returning results in input order (byte-identical for
// every Workers value: each job is a serial SampleRun of its own).
func SampleBatch(reg *workloads.Registry, names []string, base SampleConfig, opt RunOptions) ([]SampleResultJSON, error) {
	return runner.Map(opt.ctx(), len(names), opt.config(func(i int) string { return names[i] }),
		func(_ context.Context, i int) (SampleResultJSON, error) {
			cfg := base
			cfg.Workload = names[i]
			cfg.Replay = ""
			return SampleRun(reg, cfg, RunOptions{Workers: 1, Context: opt.Context})
		})
}

// est returns the estimate for one machine/metric pair, or nil.
func (r SampleResultJSON) est(machineName, metric string) *sampling.Estimate {
	for i := range r.Estimates {
		if r.Estimates[i].Machine == machineName && r.Estimates[i].Metric == metric {
			return &r.Estimates[i]
		}
	}
	return nil
}

// rateBar renders an estimated rate with its standard-error half-width.
func rateBar(e *sampling.Estimate, totalInstr uint64) string {
	if e == nil || totalInstr == 0 {
		return "-"
	}
	return fmt.Sprintf("%s ±%.1g", stats.SciNotation(e.Rate), e.StdErr/float64(totalInstr))
}

// FormatSampleBatch renders the sampled sweep: one row per workload,
// the Table 2 headline columns as estimates with error bars.
func FormatSampleBatch(results []SampleResultJSON) string {
	var b strings.Builder
	t := stats.NewTable("benchmark", "L2 miss rate", "mig L2 miss rate", "ratio", "migration rate", "savings")
	for _, r := range results {
		nl2 := r.est("normal", machine.MetricL2Misses)
		ml2 := r.est("migration", machine.MetricL2Misses)
		mig := r.est("migration", machine.MetricMigrations)
		ratio := "-"
		if nl2 != nil && ml2 != nil && nl2.Total > 0 {
			ratio = stats.Ratio(ml2.Total/nl2.Total, 1)
		}
		t.AddRow(r.Workload,
			rateBar(nl2, r.TotalInstr),
			rateBar(ml2, r.TotalInstr),
			ratio,
			rateBar(mig, r.TotalInstr),
			fmt.Sprintf("%.1fx", r.Savings),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// FormatSample renders the estimate table, clearly labelled: these are
// reconstructed numbers with error bars, not measured totals.
func FormatSample(r SampleResultJSON) string {
	var b strings.Builder
	name := r.Workload
	if name == "" {
		name = r.Replay
	}
	fmt.Fprintf(&b, "ESTIMATED results for %s (interval sampling: %d intervals of %d instr, %d/%d measured, %d clusters, seed %d)\n",
		name, r.Intervals, r.Sample.Interval, r.MeasuredIntervals, r.Intervals, r.ClustersUsed, r.Sample.Seed)
	fmt.Fprintf(&b, "simulated %d of %d events (%.1fx savings); rates are per retired instruction, bars are 95%%\n",
		r.SimulatedEvents, r.Events, r.Savings)
	if r.ProfileStackDropped > 0 {
		fmt.Fprintf(&b, "note: profiling stack evicted %d lines; signatures (not estimates) are approximate\n", r.ProfileStackDropped)
	}
	t := stats.NewTable("machine", "metric", "total", "rate", "95% interval")
	for _, e := range r.Estimates {
		t.AddRow(e.Machine, e.Metric,
			fmt.Sprintf("%.0f", e.Total),
			stats.SciNotation(e.Rate),
			fmt.Sprintf("[%.0f, %.0f]", e.Lo, e.Hi),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// FormatSampleVerify renders the estimate-vs-actual error table of
// -sample-verify: each estimated metric against the full-fidelity
// value, with the relative error and whether the actual landed inside
// the reported bar.
func FormatSampleVerify(r SampleResultJSON, normal, mig machine.Stats) string {
	var b strings.Builder
	b.WriteString("sample verification (estimate vs full-fidelity run)\n")
	t := stats.NewTable("machine", "metric", "estimate", "actual", "err%", "within bars")
	for i, e := range r.Estimates {
		def := sampling.Metrics[i]
		var actual uint64
		if def.Machine == "normal" {
			actual = def.Get(normal)
		} else {
			actual = def.Get(mig)
		}
		errPct := "-"
		if actual > 0 {
			errPct = fmt.Sprintf("%+.2f", 100*(e.Total-float64(actual))/float64(actual))
		}
		within := "yes"
		if f := float64(actual); f < e.Lo || f > e.Hi {
			within = "NO"
		}
		t.AddRow(e.Machine, e.Metric,
			fmt.Sprintf("%.0f", e.Total),
			fmt.Sprintf("%d", actual),
			errPct,
			within,
		)
	}
	b.WriteString(t.String())
	return b.String()
}
