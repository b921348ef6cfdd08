package main

import (
	"fmt"
	"os"

	"repro/internal/ioutilx"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// runTelemetry owns the per-run observability state: one timeline per
// machine (both sampled at the same events) and the optional live
// endpoint. It is created only when -timeline or -metrics is in play.
type runTelemetry struct {
	interval uint64
	// ms holds the normal machine, then the migration machine: the
	// order their rows merge in within an interval.
	ms   [2]timedMachine
	live *telhttp.Live
}

// timedMachine is one machine's share of the run's telemetry: its
// report name, its registry and the timeline sampling it.
type timedMachine struct {
	name string
	reg  *telemetry.Registry
	tl   *telemetry.Timeline
}

// timelineCapacity sizes the preallocated sample ring: enough for a
// typical run (budget/interval), clamped to something modest — the ring
// doubles on demand.
const timelineCapacity = 256

// newRunTelemetry builds the timelines over both machines' registries.
func newRunTelemetry(p *runParams, normal, mig *machine.Machine) (*runTelemetry, error) {
	if p.TimelineInterval == 0 {
		return nil, nil
	}
	rt := &runTelemetry{interval: p.TimelineInterval, live: p.live}
	for i, m := range [2]*machine.Machine{normal, mig} {
		tl, err := telemetry.NewTimeline(m.Telemetry(), p.TimelineInterval, timelineCapacity)
		if err != nil {
			return nil, err
		}
		rt.ms[i] = timedMachine{name: [2]string{"normal", "migration"}[i], reg: m.Telemetry(), tl: tl}
	}
	return rt, nil
}

// tick is the pass's boundary step: both machines sit at events, so
// both timelines sample there and, at a sampling point, both registries
// go to the live endpoint.
func (rt *runTelemetry) tick(events uint64) {
	for i := range rt.ms {
		m := &rt.ms[i]
		m.tl.MaybeSample(events)
		if rt.live != nil && events != 0 && events%rt.interval == 0 {
			rt.live.Publish(m.name, m.reg.Snapshot())
		}
	}
}

// finish publishes the end-of-run values and returns the merged row
// stream: interval-ascending, normal before migration within an
// interval.
func (rt *runTelemetry) finish() []telemetry.Row {
	if rt == nil {
		return nil
	}
	var rows [2][]telemetry.Row
	for i, m := range rt.ms {
		if rt.live != nil {
			rt.live.Publish(m.name, m.reg.Snapshot())
		}
		rows[i] = m.tl.Rows(m.name)
	}
	return telemetry.MergeRows(rows[0], rows[1])
}

// droppedRows sums both timelines' cap evictions, so the run report can
// account for the missing prefix of the merged stream.
func (rt *runTelemetry) droppedRows() uint64 {
	if rt == nil {
		return 0
	}
	return rt.ms[0].tl.Dropped() + rt.ms[1].tl.Dropped()
}

// writeTimeline writes rows as JSONL to path ("-" = stdout), with the
// drop-accounting footer when the ring cap evicted rows.
func writeTimeline(path string, rows []telemetry.Row, dropped uint64) (err error) {
	if path == "-" {
		return telemetry.WriteJSONLWithFooter(os.Stdout, rows, dropped)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutilx.CloseKeeping(&err, f)
	return telemetry.WriteJSONLWithFooter(f, rows, dropped)
}

// serveMetrics binds addr and serves the live metrics endpoint in the
// background until the run's teardown shuts the returned Live down — so
// a finished run releases its port instead of leaking the listener for
// the life of the process. It returns the bound address (useful with
// ":0") and the publisher the run feeds.
func serveMetrics(addr string) (*telhttp.Live, string, error) {
	live := telhttp.NewLive()
	bound, err := live.Start(addr)
	if err != nil {
		return nil, "", fmt.Errorf("emsim: -metrics: %w", err)
	}
	return live, bound, nil
}
