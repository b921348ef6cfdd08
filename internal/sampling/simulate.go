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
	// experiment tee. A non-default Mig scenario's policy state rides
	// the warm-start checkpoint exactly as emsim -checkpoint writes it.
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

// chainRun is the per-chain job state: the hook the run engine's
// stream fires at every cut.
type chainRun struct {
	cfg       SimConfig
	intervals []Interval
	measured  []Measured // this chain's measured intervals, ascending
	pair      *run.Pair
	stream    *run.Stream

	mi       int      // next measured interval to open
	open     bool     // a measured interval is in flight
	base     []uint64 // metric vector at the open interval's start
	measures []IntervalMeasure
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

// hook runs at each cut event: close the open measured interval and/or
// warm-start the next one through an EMCKPT2 snapshot round-trip.
func (r *chainRun) hook(event uint64) error {
	if r.open && event == r.intervals[r.measured[r.mi].Interval].EndEvent {
		m := r.measured[r.mi]
		iv := r.intervals[m.Interval]
		cur := extract(r.pair.Normal.Stats, r.pair.Mig.Stats)
		for i := range cur {
			cur[i] -= r.base[i]
		}
		r.measures = append(r.measures, IntervalMeasure{
			Interval: m.Interval,
			Cluster:  m.Cluster,
			Role:     m.Role,
			Events:   iv.Events(),
			Instr:    iv.Instr,
			Values:   cur,
		})
		r.open = false
		r.mi++
	}
	if !r.open && r.mi < len(r.measured) && event == r.intervals[r.measured[r.mi].Interval].StartEvent {
		if err := r.warmStart(event); err != nil {
			return err
		}
		r.base = extract(r.pair.Normal.Stats, r.pair.Mig.Stats)
		r.open = true
	}
	return nil
}

// warmStart replaces both machines with fresh ones restored from an
// EMCKPT2 round-trip of their own snapshots — the measured interval
// starts from checkpoint bytes, so the estimate inherits the resume
// path's bit-exactness guarantee (and its tests).
func (r *chainRun) warmStart(event uint64) error {
	ck, err := r.pair.Checkpoint(run.Spec{}, event)
	if err != nil {
		return err
	}
	if ck, err = machine.RoundTripCheckpoint(ck); err != nil {
		return err
	}
	fresh, err := run.NewPairConfig(r.cfg.Normal, r.cfg.Mig)
	if err != nil {
		return err
	}
	if err := fresh.Restore(ck); err != nil {
		return err
	}
	r.pair = fresh
	r.stream.To = fresh.Sinks()
	return nil
}

// runChain executes one chain on the run engine: fast-forward to the
// chain's first interval, deliver through its last, and measure at the
// cuts. With no warmup the first cut is the skip edge itself, where the
// stream's cut hook fires before any event is delivered.
func runChain(src Source, intervals []Interval, plan Plan, chain Chain, cfg SimConfig) ([]IntervalMeasure, error) {
	pair, err := run.NewPairConfig(cfg.Normal, cfg.Mig)
	if err != nil {
		return nil, err
	}
	measured := make([]Measured, len(chain.Measured))
	for i, mi := range chain.Measured {
		measured[i] = plan.Measured[mi]
	}
	r := &chainRun{cfg: cfg, intervals: intervals, measured: measured, pair: pair}
	r.stream = &run.Stream{
		To:     pair.Sinks(),
		Skip:   chain.SkipEvents,
		Cuts:   cutsFor(intervals, measured),
		StopAt: intervals[chain.LastInterval].EndEvent,
		Hook:   r.hook,
	}
	stopped, err := r.stream.Run(src)
	if err != nil {
		return nil, err
	}
	if !stopped || len(r.measures) != len(measured) {
		return nil, fmt.Errorf("sampling: stream ended at event %d before chain [%d..%d] completed (%d/%d intervals measured)",
			r.stream.Events(), chain.FirstInterval, chain.LastInterval, len(r.measures), len(measured))
	}
	return r.measures, nil
}

// Simulate runs every chain of the plan over the worker pool and
// returns the per-interval measurements in interval order. Chains are
// independent jobs over the deterministic source, merged in index
// order, so the result is byte-identical for every worker count.
func Simulate(ctx context.Context, src Source, intervals []Interval, plan Plan, cfg SimConfig) (SimResult, error) {
	chains := plan.Chains
	results, err := runner.Map(ctx, len(chains), runner.Config{Workers: cfg.Workers},
		func(_ context.Context, i int) ([]IntervalMeasure, error) {
			return runChain(src, intervals, plan, chains[i], cfg)
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
