package sampling

import (
	"context"
	"fmt"
	"sort"

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

// Source replays the full deterministic event stream into sink. The
// chain pass calls it once per lane, and each call must deliver the
// identical stream: a workload generator or a recorded trace, never a
// live feed.
type Source func(sink mem.BatchSink) error

// Resume lets a lane begin a pass part way into the stream instead of
// at event 0: a replayed trace, whose recorded positions its decoder
// can resume at.
type Resume struct {
	// Events lists, ascending, the events a pass can begin after.
	Events []uint64
	// From returns the source that delivers the stream's events after
	// event Events[i].
	From func(i int) Source
}

// SimConfig shapes the simulation pass.
type SimConfig struct {
	// Normal and Mig are the two machine configurations of the
	// experiment tee. Each chain drives one pair of them from its first
	// interval to its last, so the caches, the affinity tables and a
	// scenario's policy state (numa's distance hysteresis included)
	// carry across the chain's unmeasured gaps as in a full run.
	Normal, Mig machine.Config
	// Workers sizes the worker pool (0 = all cores), and the pool size
	// sets the number of lanes the chains are split into. Results merge
	// in chain order, so every worker count produces identical output.
	Workers int
	// Resume, when set, lets each lane start its passes at a recorded
	// position before its chains instead of at event 0.
	Resume *Resume
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

// cutsFor returns the ascending unique boundary events of the chains
// of one pass: each chain's start and each measured interval's start
// and end.
func cutsFor(intervals []Interval, plan Plan, chains []Chain) []uint64 {
	var cuts []uint64
	add := func(ev uint64) {
		if n := len(cuts); n == 0 || cuts[n-1] < ev {
			cuts = append(cuts, ev)
		}
	}
	for _, c := range chains {
		add(c.SkipEvents)
		for _, mi := range c.Measured {
			iv := intervals[plan.Measured[mi].Interval]
			add(iv.StartEvent)
			add(iv.EndEvent)
		}
	}
	return cuts
}

// chainEnd is the event a chain's delivery ends at.
func chainEnd(intervals []Interval, c Chain) uint64 { return intervals[c.LastInterval].EndEvent }

// runPass executes consecutive chains of one lane in one pass of src,
// which begins after event start. The pass discards the stream up to
// each chain's first interval and between chains, and delivers each
// chain's window into a pair of its own, built when the pass reaches
// the chain and dropped when the chain ends, so a pass holds one live
// pair at a time. The metric vector is read at every cut; a measured
// interval is the difference of the vectors at its end and its start.
// With no warmup the first cut is the skip edge itself, where the cut
// hook fires before any of the chain's events is delivered. A pass
// that ctx stops returns ctx.Err().
func runPass(ctx context.Context, src Source, start uint64, intervals []Interval, plan Plan, chains []Chain, cfg SimConfig) ([]IntervalMeasure, error) {
	var (
		measures []IntervalMeasure
		ci       int // the chain the pass is in or heading for
		pair     *run.Pair
		at       map[uint64][]uint64 // the chain's metric vector at each cut
	)
	stream := &run.Stream{
		Start:  start,
		Skip:   chains[0].SkipEvents,
		Cuts:   cutsFor(intervals, plan, chains),
		StopAt: chainEnd(intervals, chains[len(chains)-1]),
	}
	stream.Hook = func(event uint64) error {
		c := chains[ci]
		if pair == nil { // event is c.SkipEvents: the chain begins
			var err error
			if pair, err = run.NewPairConfig(cfg.Normal, cfg.Mig); err != nil {
				return err
			}
			stream.To = pair.Sink()
			at = make(map[uint64][]uint64, 2*len(c.Measured)+1)
		}
		at[event] = extract(pair.Normal.Stats, pair.Mig.Stats)
		if event == chainEnd(intervals, c) {
			measures = append(measures, chainMeasures(intervals, plan, c, at)...)
			pair, stream.To = nil, nil
			ci++
		}
		return nil
	}
	stopped, err := stream.RunContext(ctx, src)
	if err != nil {
		return nil, err
	}
	if !stopped || ci < len(chains) {
		c := chains[min(ci, len(chains)-1)]
		return nil, fmt.Errorf("sampling: stream ended at event %d before chain [%d..%d] completed",
			stream.Events(), c.FirstInterval, c.LastInterval)
	}
	return measures, nil
}

// chainMeasures reads a finished chain's measured intervals off its
// cut vectors.
func chainMeasures(intervals []Interval, plan Plan, c Chain, at map[uint64][]uint64) []IntervalMeasure {
	measures := make([]IntervalMeasure, len(c.Measured))
	for i, mi := range c.Measured {
		m := plan.Measured[mi]
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
	return measures
}

// pass is one run of a source over consecutive chains of a lane: from
// delivers the stream's events after event start.
type pass struct {
	start  uint64
	from   Source
	chains []Chain
}

// passes splits a lane's chains into source passes. Without Resume the
// lane is one pass from event 0. With it, a pass begins at the latest
// resume position at or before its first chain, and a chain begins a
// new pass whenever such a position lies beyond the previous chain's
// end, so no part of the stream is read twice.
func passes(intervals []Interval, chains []Chain, src Source, r *Resume) []pass {
	// latest returns the index of the last resume position at or
	// before ev, or -1.
	latest := func(ev uint64) int {
		if r == nil {
			return -1
		}
		return sort.Search(len(r.Events), func(i int) bool { return r.Events[i] > ev }) - 1
	}
	var out []pass
	for i, c := range chains {
		p := latest(c.SkipEvents)
		if i > 0 && (p < 0 || r.Events[p] <= chainEnd(intervals, chains[i-1])) {
			last := &out[len(out)-1]
			last.chains = append(last.chains, c)
			continue
		}
		ps := pass{from: src, chains: []Chain{c}}
		if p >= 0 {
			ps.start, ps.from = r.Events[p], r.From(p)
		}
		out = append(out, ps)
	}
	return out
}

// lanes splits n chains into k contiguous runs of near-equal length,
// as [first, end) index pairs.
func lanes(n, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// Simulate runs every chain of the plan and returns the per-interval
// measurements in interval order. The chains are split into one
// contiguous lane per pool worker (at most one per chain), and each
// lane reads the source once for all of its chains: one pass from the
// top, or with cfg.Resume one pass per stretch of the stream between
// resume positions. Each chain still runs on a fresh pair, and lanes
// merge in chain order, so the result is byte-identical for every
// worker count.
func Simulate(ctx context.Context, src Source, intervals []Interval, plan Plan, cfg SimConfig) (SimResult, error) {
	chains := plan.Chains
	pool := runner.Config{Workers: cfg.Workers}
	ls := lanes(len(chains), min(pool.Pool(len(chains)), len(chains)))
	results, err := runner.Map(ctx, len(ls), pool,
		func(ctx context.Context, i int) ([]IntervalMeasure, error) {
			var ms []IntervalMeasure
			for _, p := range passes(intervals, chains[ls[i][0]:ls[i][1]], src, cfg.Resume) {
				m, err := runPass(ctx, p.from, p.start, intervals, plan, p.chains, cfg)
				if err != nil {
					return nil, err
				}
				ms = append(ms, m...)
			}
			return ms, nil
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
