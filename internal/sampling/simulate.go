package sampling

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/run"
	"repro/internal/runner"
)

// MetricDef names one estimated metric and how to read it off a
// machine's stats.
type MetricDef struct {
	Machine string // "normal" | "migration"
	Name    string // a machine.Metric* constant
	Get     func(machine.Stats) uint64
}

// Metrics is the fixed set of per-interval metrics the sampler measures
// and reconstructs: the paper's headline miss counts for both machines
// plus the migration count. Order is part of the output contract
// (IntervalMeasure.Values and the estimate rows align to it).
var Metrics = []MetricDef{
	{"normal", machine.MetricIL1Misses, func(s machine.Stats) uint64 { return s.IL1Misses }},
	{"normal", machine.MetricDL1Misses, func(s machine.Stats) uint64 { return s.DL1Misses }},
	{"normal", machine.MetricL2Misses, func(s machine.Stats) uint64 { return s.L2Misses }},
	{"migration", machine.MetricIL1Misses, func(s machine.Stats) uint64 { return s.IL1Misses }},
	{"migration", machine.MetricDL1Misses, func(s machine.Stats) uint64 { return s.DL1Misses }},
	{"migration", machine.MetricL2Misses, func(s machine.Stats) uint64 { return s.L2Misses }},
	{"migration", machine.MetricMigrations, func(s machine.Stats) uint64 { return s.Migrations }},
}

// extract reads every metric into one vector.
func extract(normal, mig machine.Stats) []uint64 {
	v := make([]uint64, len(Metrics))
	for i, d := range Metrics {
		if d.Machine == "normal" {
			v[i] = d.Get(normal)
		} else {
			v[i] = d.Get(mig)
		}
	}
	return v
}

// Source replays the full deterministic event stream into sink. Chain
// jobs each call it afresh (like emsim's independent passes), so the
// stream must be reproducible: a workload generator or a recorded
// trace, never a live feed.
type Source func(sink mem.BatchSink) error

// SimConfig shapes the simulation pass.
type SimConfig struct {
	// Normal and Mig are the two machine configurations of the
	// experiment tee. Each chain drives one pair of them from its first
	// interval to its last, so the caches, the affinity tables and a
	// scenario's policy state (numa's distance hysteresis included)
	// carry across the chain's unmeasured gaps as in a full run.
	Normal, Mig machine.Config
	// Workers sizes the chain worker pool (0 = all cores). Results
	// merge in chain order, so every worker count produces identical
	// output.
	Workers int
}

// IntervalMeasure is the full-fidelity measurement of one interval.
type IntervalMeasure struct {
	Interval int
	Cluster  int
	Role     string
	Events   uint64
	Instr    uint64
	// Values holds the per-interval metric deltas, aligned to Metrics.
	Values []uint64
}

// SimResult is the simulation pass's output.
type SimResult struct {
	// Measures come back ascending by interval index regardless of the
	// worker count.
	Measures []IntervalMeasure
	// DeliveredEvents counts events actually simulated (warmup + gaps +
	// measured intervals); the savings ratio is total/delivered.
	DeliveredEvents uint64
}

// cutsFor returns the ascending unique boundary events of the chain:
// each measured interval's start and end.
func cutsFor(intervals []Interval, measured []Measured) []uint64 {
	var cuts []uint64
	for _, m := range measured {
		iv := intervals[m.Interval]
		if n := len(cuts); n == 0 || cuts[n-1] < iv.StartEvent {
			cuts = append(cuts, iv.StartEvent)
		}
		cuts = append(cuts, iv.EndEvent)
	}
	return cuts
}

// runChain executes one chain on the run engine: fast-forward to the
// chain's first interval, deliver through its last into one machine
// pair, and read the metric vector at every cut. A measured interval is
// the difference of the vectors at its end and its start. With no
// warmup the first cut is the skip edge itself, where the stream's cut
// hook fires before any event is delivered. A chain that ctx stops
// returns ctx.Err().
func runChain(ctx context.Context, src Source, intervals []Interval, plan Plan, chain Chain, cfg SimConfig) ([]IntervalMeasure, error) {
	pair, err := run.NewPairConfig(cfg.Normal, cfg.Mig)
	if err != nil {
		return nil, err
	}
	measured := make([]Measured, len(chain.Measured))
	for i, mi := range chain.Measured {
		measured[i] = plan.Measured[mi]
	}
	cuts := cutsFor(intervals, measured)
	at := make(map[uint64][]uint64, len(cuts)) // the metric vector at each cut
	stream := &run.Stream{
		To:     pair.Sinks(),
		Skip:   chain.SkipEvents,
		Cuts:   cuts,
		StopAt: intervals[chain.LastInterval].EndEvent,
		Hook: func(event uint64) error {
			at[event] = extract(pair.Normal.Stats, pair.Mig.Stats)
			return nil
		},
	}
	stopped, err := stream.RunContext(ctx, src)
	if err != nil {
		return nil, err
	}
	if !stopped || len(at) != len(cuts) {
		return nil, fmt.Errorf("sampling: stream ended at event %d before chain [%d..%d] completed (%d/%d cuts reached)",
			stream.Events(), chain.FirstInterval, chain.LastInterval, len(at), len(cuts))
	}
	measures := make([]IntervalMeasure, len(measured))
	for i, m := range measured {
		iv := intervals[m.Interval]
		start, end := at[iv.StartEvent], at[iv.EndEvent]
		v := make([]uint64, len(Metrics))
		for j := range v {
			v[j] = end[j] - start[j]
		}
		measures[i] = IntervalMeasure{
			Interval: m.Interval,
			Cluster:  m.Cluster,
			Role:     m.Role,
			Events:   iv.Events(),
			Instr:    iv.Instr,
			Values:   v,
		}
	}
	return measures, nil
}

// Simulate runs every chain of the plan over the worker pool and
// returns the per-interval measurements in interval order. Chains are
// independent jobs over the deterministic source, merged in index
// order, so the result is byte-identical for every worker count.
func Simulate(ctx context.Context, src Source, intervals []Interval, plan Plan, cfg SimConfig) (SimResult, error) {
	chains := plan.Chains
	results, err := runner.Map(ctx, len(chains), runner.Config{Workers: cfg.Workers},
		func(ctx context.Context, i int) ([]IntervalMeasure, error) {
			return runChain(ctx, src, intervals, plan, chains[i], cfg)
		})
	if err != nil {
		return SimResult{}, err
	}
	var out SimResult
	for _, ms := range results {
		out.Measures = append(out.Measures, ms...)
	}
	out.DeliveredEvents = plan.DeliveredEvents(intervals)
	return out, nil
}
