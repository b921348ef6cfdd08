package report

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/run"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// RunOptions configures how a batch experiment driver schedules its
// independent simulation jobs on the runner worker pool.
//
// Determinism model: every job owns its machines, generators and RNG
// state (workloads are constructed fresh inside the job), no job reads
// another's output, and the runner returns results in input order — so
// batch output is byte-identical for every Workers value, including
// the serial Workers == 1 legacy path. The golden tests in
// parallel_test.go pin this property.
type RunOptions struct {
	// Workers is the worker-pool size: 0 = runtime.NumCPU(),
	// 1 = serial in-caller execution, n = at most n jobs in flight.
	Workers int
	// Progress, when non-nil, is called once per finished job with a
	// human-readable job label (a workload or sweep-point name). Calls
	// are serialised; their order is nondeterministic when Workers > 1.
	Progress func(label string)
	// Context cancels the batch early; nil means context.Background().
	Context context.Context
}

// config builds the runner configuration, translating job indices into
// the caller's labels for progress reporting.
func (o RunOptions) config(label func(i int) string) runner.Config {
	cfg := runner.Config{Workers: o.Workers}
	if o.Progress != nil {
		cfg.OnDone = func(i int) { o.Progress(label(i)) }
	}
	return cfg
}

func (o RunOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Table1Batch runs the Table 1 measurement for each named workload on
// the worker pool and returns the rows in input order.
func Table1Batch(reg *workloads.Registry, names []string, budget uint64, opt RunOptions) ([]Table1Row, error) {
	return runner.Map(opt.ctx(), len(names), opt.config(func(i int) string { return names[i] }),
		func(_ context.Context, i int) (Table1Row, error) {
			w, err := reg.New(names[i])
			if err != nil {
				return Table1Row{}, err
			}
			return Table1(w, budget), nil
		})
}

// Table2Batch runs the Table 2 experiment for each named workload on
// the worker pool: one grouped pass per workload through the 1-core
// baseline and the 4-core migration machine. Rows come back in input
// order and are bit-identical for every worker count.
func Table2Batch(reg *workloads.Registry, names []string, budget uint64, opt RunOptions) ([]Table2Row, error) {
	cfgs := []machine.Config{machine.NormalConfig(), machine.MigrationConfig()}
	passes, err := runGroups(names, cfgs, 0, workloadSources(reg, names, budget), opt)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(passes))
	for i, p := range passes {
		rows[i] = table2Row(p.name, p.suite, p.ms[0].Stats, p.ms[1].Stats)
	}
	return rows, nil
}

// LRUProfileBatch runs the Figures 4/5 profiling experiment for each
// named workload on the worker pool, returning the panels in input
// order. maxLines caps each LRU stack as in LRUProfileCapped.
func LRUProfileBatch(reg *workloads.Registry, names []string, budget uint64, lineShift uint, maxLines int64, opt RunOptions) ([]ProfileResult, error) {
	return runner.Map(opt.ctx(), len(names), opt.config(func(i int) string { return names[i] }),
		func(_ context.Context, i int) (ProfileResult, error) {
			w, err := reg.New(names[i])
			if err != nil {
				return ProfileResult{}, err
			}
			return LRUProfileCapped(w, budget, lineShift, maxLines), nil
		})
}

// Fig3Batch runs the Figure 3 experiment for each behaviour on the
// worker pool, returning one checkpoint series per behaviour in input
// order.
func Fig3Batch(behaviors []string, cfg Fig3Config, opt RunOptions) ([][]Fig3Result, error) {
	return runner.Map(opt.ctx(), len(behaviors), opt.config(func(i int) string { return behaviors[i] }),
		func(_ context.Context, i int) ([]Fig3Result, error) {
			return Fig3(behaviors[i], cfg)
		})
}

// source is one stream of a grouped pass: the events it feeds and, for
// a workload, the name and suite the pass reports.
type source struct {
	name, suite string
	feed        func(mem.BatchSink) error
}

// pass is one stream after its grouped pass: its source, the group's
// members in config order and, when the pass sampled, each member's
// timeline.
type pass struct {
	source
	ms  []*machine.Machine
	tls []*telemetry.Timeline
}

// workloadSources opens stream i as names[i] run for budget
// instructions, fed by run.Spec.Feed.
func workloadSources(reg *workloads.Registry, names []string, budget uint64) func(i int) (source, error) {
	return func(i int) (source, error) {
		w, err := reg.New(names[i])
		if err != nil {
			return source{}, err
		}
		spec := run.Spec{Workload: names[i], Instr: budget, Registry: reg}
		return source{name: w.Name(), suite: w.Suite(), feed: spec.Feed}, nil
	}
}

// runGroups is the batch drivers' one machine pass. Stream i, opened by
// open(i) and labelled labels[i] for progress, is driven exactly once
// with a run.Stream through one machine.Group over cfgs; interval > 0
// also samples every member's timeline at each multiple of interval
// events. The configurations are validated once, before any stream
// runs. Streams run on the worker pool and come back in input order,
// byte-identical for every worker count: each job opens its own source
// and builds its own group, and a group leaves every member in the
// state a machine of its own would reach on the same stream. Each
// stream stops within a batch once its job's context is done.
func runGroups(labels []string, cfgs []machine.Config, interval uint64, open func(i int) (source, error), opt RunOptions) ([]pass, error) {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("report: machine config %d: %w", i, err)
		}
	}
	label := func(i int) string { return labels[i] }
	return runner.Map(opt.ctx(), len(labels), opt.config(label), func(ctx context.Context, i int) (pass, error) {
		src, err := open(i)
		if err != nil {
			return pass{}, err
		}
		g, err := machine.NewGroup(cfgs...)
		if err != nil {
			return pass{}, err
		}
		p := pass{source: src, ms: g.Machines()}
		s := &run.Stream{To: g}
		if interval > 0 {
			for _, m := range p.ms {
				tl, err := telemetry.NewTimeline(m.Telemetry(), interval, 64)
				if err != nil {
					return pass{}, err
				}
				p.tls = append(p.tls, tl)
			}
			// Every member is sampled at the same event, after every
			// event up to it has reached the group.
			s.Every = []uint64{interval}
			s.Hook = func(events uint64) error {
				for _, tl := range p.tls {
					tl.MaybeSample(events)
				}
				return nil
			}
		}
		if _, err := s.RunContext(ctx, src.feed); err != nil {
			return pass{}, err
		}
		return p, nil
	})
}
