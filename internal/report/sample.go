package report

// Interval-sampling driver: the one entry point every surface (emsim
// -sample, emsimd sampled runs, tables -sample) goes through, so all of
// them emit byte-identical estimates for the same configuration. The
// pipeline is profile -> cluster -> plan -> simulate -> reconstruct,
// all in internal/sampling, fed by the run spec's Feed; this file
// owns the canonical JSON shape and the text rendering.

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/run"
	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/trace"
)

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

// SampleRun executes the full sampling pipeline for a sampled spec and
// returns the canonical result. The spec's scenario names are echoed
// as given, so callers pass them normalized. Deterministic for a fixed
// spec: the profile pass profiles its stream in order (its input is
// produced on a goroutine of its own, but batch for batch as a serial
// pass would read it), clustering and planning are seeded and ordered,
// and the chain lanes merge in chain order for every Workers value.
func SampleRun(spec run.Spec, opt RunOptions) (SampleResultJSON, error) {
	if err := spec.Validate(); err != nil {
		return SampleResultJSON{}, err
	}
	normalCfg := machine.NormalConfig()
	migCfg, err := spec.MigConfig()
	if err != nil {
		return SampleResultJSON{}, err
	}
	// Each Feed call opens the trace or constructs the workload afresh,
	// so concurrent chain lanes never share generator state. A replay's
	// profile pass records the trace's resume positions as it reads, on
	// its stage's goroutine; Staged returns only after that goroutine
	// has, so the chain lanes read idx safely.
	src := sampling.Source(spec.Feed)
	idx := new(trace.Index)
	profSrc := mem.Staged(run.StageDepth, func(sink mem.BatchSink) error { return spec.FeedIndexed(sink, idx) })

	prof, err := sampling.NewProfiler(spec.SampleInterval, normalCfg.LineShift)
	if err != nil {
		return SampleResultJSON{}, err
	}
	if _, err := (&run.Stream{To: prof}).RunContext(opt.ctx(), profSrc); err != nil {
		return SampleResultJSON{}, err
	}
	intervals := prof.Finish()
	if len(intervals) == 0 {
		return SampleResultJSON{}, fmt.Errorf("report: input stream produced no events to sample")
	}

	cl := sampling.Cluster(intervals, spec.SampleClusters, spec.SampleSeed)
	plan := sampling.NewPlan(intervals, cl, spec.SampleWarmup)
	sim, err := sampling.Simulate(opt.ctx(), src, intervals, plan, sampling.SimConfig{
		Normal:  normalCfg,
		Mig:     migCfg,
		Workers: opt.Workers,
		Resume:  replayResume(spec, idx),
	})
	if err != nil {
		return SampleResultJSON{}, err
	}

	r := SampleResultJSON{
		Workload: spec.Workload,
		Replay:   spec.Replay,
		Instr:    spec.Instr,
		Cores:    spec.Cores,
		Policy:   spec.Policy,
		Topology: spec.Topology,

		Estimated: true,
		Sample: SampleParamsJSON{
			Interval: spec.SampleInterval,
			Clusters: spec.SampleClusters,
			Seed:     spec.SampleSeed,
			Warmup:   spec.SampleWarmup,
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

// replayResume lets the chain lanes begin a replay at any position its
// profile pass recorded; nil for a generated stream.
func replayResume(spec run.Spec, idx *trace.Index) *sampling.Resume {
	if spec.Replay == "" {
		return nil
	}
	r := &sampling.Resume{From: func(i int) sampling.Source {
		p := idx.Positions[i]
		return func(sink mem.BatchSink) error { return spec.FeedFrom(p, sink) }
	}}
	for _, p := range idx.Positions {
		r.Events = append(r.Events, p.Events)
	}
	return r
}

// SampleBatch runs the sampled spec base for each named workload on
// the worker pool, returning results in input order (byte-identical for
// every Workers value: each job is a SampleRun of its own with one chain
// lane; its profile pass still overlaps its input).
func SampleBatch(names []string, base run.Spec, opt RunOptions) ([]SampleResultJSON, error) {
	return runner.Map(opt.ctx(), len(names), opt.config(func(i int) string { return names[i] }),
		func(_ context.Context, i int) (SampleResultJSON, error) {
			spec := base
			spec.Workload = names[i]
			spec.Replay = ""
			return SampleRun(spec, RunOptions{Workers: 1, Context: opt.Context})
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
