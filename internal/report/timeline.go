package report

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/run"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TimelineResult is one workload's interval timeline: both machines'
// metric samples every Interval events, merged into the deterministic
// row order (normal before migration within an interval), plus each
// machine's end-of-run metric snapshot.
type TimelineResult struct {
	Name     string
	Interval uint64
	Rows     []telemetry.Row
	// Dropped counts the oldest rows the timelines' hard ring cap
	// evicted across both machines; nonzero means Rows is a suffix.
	Dropped uint64
	// NormalFinal and MigFinal are the machines' final metric values —
	// the last timeline point even when the run ends off-boundary.
	NormalFinal, MigFinal telemetry.Snapshot
}

// timelineHalf is one machine pass of one workload.
type timelineHalf struct {
	rows    []telemetry.Row
	dropped uint64
	final   telemetry.Snapshot
}

// runTimelineHalf drives a fresh workload instance through one machine
// configuration, sampling every interval events.
func runTimelineHalf(reg *workloads.Registry, name string, budget uint64,
	cfg machine.Config, label string, interval uint64) (timelineHalf, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return timelineHalf{}, err
	}
	tl, err := telemetry.NewTimeline(m.Telemetry(), interval, 64)
	if err != nil {
		return timelineHalf{}, err
	}
	// The run engine numbers events exactly as every other surface
	// does, so interval boundaries land on identical events everywhere.
	s := &run.Stream{To: []mem.BatchSink{m}, Every: []uint64{interval}, Hook: func(events uint64) error {
		tl.MaybeSample(events)
		return nil
	}}
	if _, err := s.Run(run.Spec{Workload: name, Instr: budget, Registry: reg}.Feed); err != nil {
		return timelineHalf{}, err
	}
	return timelineHalf{rows: tl.Rows(label), dropped: tl.Dropped(), final: m.Telemetry().Snapshot()}, nil
}

// TimelineFor runs one workload through both machine configurations
// serially and returns its timeline.
func TimelineFor(reg *workloads.Registry, name string, budget, interval uint64) (TimelineResult, error) {
	res, err := TimelineBatch(reg, []string{name}, budget, interval, RunOptions{Workers: 1})
	if err != nil {
		return TimelineResult{}, err
	}
	return res.Workloads[0], nil
}

// TimelineBatchResult is a batch of workload timelines plus the
// batch-wide metric aggregate: every machine's final snapshot merged in
// job order, so the totals are identical for every worker count.
type TimelineBatchResult struct {
	Workloads []TimelineResult
	Aggregate telemetry.Snapshot
}

// TimelineBatch runs the timeline measurement for each named workload
// on the worker pool. Like Table2Batch, each workload fans out into two
// jobs (baseline and migration machine); rows and the merged aggregate
// come back in input order and are byte-identical to serial runs.
func TimelineBatch(reg *workloads.Registry, names []string, budget, interval uint64, opt RunOptions) (TimelineBatchResult, error) {
	if interval == 0 {
		return TimelineBatchResult{}, fmt.Errorf("report: timeline interval must be positive")
	}
	normalCfg := machine.NormalConfig()
	migCfg := machine.MigrationConfig()
	if err := validateConfigs(normalCfg, migCfg); err != nil {
		return TimelineBatchResult{}, err
	}
	label := func(j int) string {
		if j%2 == 0 {
			return names[j/2] + " (1-core)"
		}
		return names[j/2] + " (migration)"
	}
	return runner.Reduce(opt.ctx(), 2*len(names), opt.config(label), TimelineBatchResult{},
		func(_ context.Context, j int) (timelineHalf, error) {
			if j%2 == 0 {
				return runTimelineHalf(reg, names[j/2], budget, normalCfg, "normal", interval)
			}
			return runTimelineHalf(reg, names[j/2], budget, migCfg, "migration", interval)
		},
		func(acc TimelineBatchResult, half timelineHalf, j int) TimelineBatchResult {
			if j%2 == 0 {
				acc.Workloads = append(acc.Workloads, TimelineResult{
					Name:        names[j/2],
					Interval:    interval,
					Dropped:     half.dropped,
					NormalFinal: half.final,
					Rows:        half.rows,
				})
			} else {
				r := &acc.Workloads[j/2]
				r.MigFinal = half.final
				r.Dropped += half.dropped
				r.Rows = telemetry.MergeRows(r.Rows, half.rows)
			}
			telemetry.Merge(&acc.Aggregate, half.final)
			return acc
		})
}

// counterDelta returns how much the named counter advanced between two
// consecutive rows of the same machine (prev == nil means run start).
func counterDelta(prev, cur *telemetry.Row, name string) uint64 {
	v := cur.Counters[name]
	if prev != nil {
		v -= prev.Counters[name]
	}
	return v
}

// FormatTimeline renders per-interval delta columns for each workload:
// how many L2 misses each machine took in the interval, the migrations
// executed, and the interval's miss ratio — Table 2's headline trade,
// resolved over time instead of end-of-run.
func FormatTimeline(batch TimelineBatchResult) string {
	t := stats.NewTable("workload", "interval", "events",
		"ΔL2miss 1-core", "ΔL2miss mig", "Δmigrations", "interval ratio")
	var notes string
	for _, wl := range batch.Workloads {
		if wl.Dropped > 0 {
			notes += fmt.Sprintf("note: %s hit the timeline ring cap; the oldest %d rows were dropped\n"+
				"      and the first kept interval's deltas include the missing prefix.\n",
				wl.Name, wl.Dropped)
		}
		var prevNormal, prevMig *telemetry.Row
		// Rows alternate normal, migration per interval.
		for i := 0; i+1 < len(wl.Rows); i += 2 {
			normal, mig := &wl.Rows[i], &wl.Rows[i+1]
			dn := counterDelta(prevNormal, normal, machine.MetricL2Misses)
			dm := counterDelta(prevMig, mig, machine.MetricL2Misses)
			dmig := counterDelta(prevMig, mig, machine.MetricMigrations)
			ratio := "-"
			if dn > 0 {
				ratio = fmt.Sprintf("%.3f", float64(dm)/float64(dn))
			}
			t.AddRow(wl.Name, fmt.Sprint(normal.Interval), fmt.Sprint(normal.Events),
				fmt.Sprint(dn), fmt.Sprint(dm), fmt.Sprint(dmig), ratio)
			prevNormal, prevMig = normal, mig
		}
	}
	out := t.String()
	if notes != "" {
		out += "\n" + notes
	}
	return out
}
