package report

import (
	"fmt"

	"repro/internal/machine"
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

// TimelineBatchResult is a batch of workload timelines plus the
// batch-wide metric aggregate: every machine's final snapshot merged in
// job order, so the totals are identical for every worker count.
type TimelineBatchResult struct {
	Workloads []TimelineResult
	Aggregate telemetry.Snapshot
}

// TimelineBatch runs the timeline measurement for each named workload
// on the worker pool: one grouped pass per workload through the
// baseline and the migration machine, both sampled at the same events.
// Rows and the aggregate, folded in input order (normal, then
// migration, per workload), are byte-identical to serial runs.
func TimelineBatch(reg *workloads.Registry, names []string, budget, interval uint64, opt RunOptions) (TimelineBatchResult, error) {
	if interval == 0 {
		return TimelineBatchResult{}, fmt.Errorf("report: timeline interval must be positive")
	}
	cfgs := []machine.Config{machine.NormalConfig(), machine.MigrationConfig()}
	passes, err := runGroups(names, cfgs, interval, workloadSources(reg, names, budget), opt)
	if err != nil {
		return TimelineBatchResult{}, err
	}
	var res TimelineBatchResult
	for i, p := range passes {
		normal, mig := p.ms[0].Telemetry().Snapshot(), p.ms[1].Telemetry().Snapshot()
		res.Workloads = append(res.Workloads, TimelineResult{
			Name:        names[i],
			Interval:    interval,
			Rows:        telemetry.MergeRows(p.tls[0].Rows("normal"), p.tls[1].Rows("migration")),
			Dropped:     p.tls[0].Dropped() + p.tls[1].Dropped(),
			NormalFinal: normal,
			MigFinal:    mig,
		})
		telemetry.Merge(&res.Aggregate, normal)
		telemetry.Merge(&res.Aggregate, mig)
	}
	return res, nil
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
