package report

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/runner"
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

// table2Job is one half of a Table 2 row: one workload driven through
// one machine configuration.
type table2Job struct {
	name, suite string
	stats       machine.Stats
}

// Table2Batch runs the Table 2 experiment for each named workload on
// the worker pool. Each workload fans out into two jobs — the 1-core
// baseline and the 4-core migration machine — so a single large
// workload still fills two cores; rows come back in input order and
// are bit-identical for every worker count (each job constructs its
// own fresh workload and machine).
func Table2Batch(reg *workloads.Registry, names []string, budget uint64, opt RunOptions) ([]Table2Row, error) {
	// Validate both machine configurations once, up front; the jobs
	// reuse the validated configs instead of reconstructing them.
	normalCfg := machine.NormalConfig()
	migCfg := machine.MigrationConfig()
	if err := validateConfigs(normalCfg, migCfg); err != nil {
		return nil, err
	}
	label := func(j int) string {
		if j%2 == 0 {
			return names[j/2] + " (1-core)"
		}
		return names[j/2] + " (migration)"
	}
	halves, err := runner.Map(opt.ctx(), 2*len(names), opt.config(label),
		func(_ context.Context, j int) (table2Job, error) {
			w, err := reg.New(names[j/2])
			if err != nil {
				return table2Job{}, err
			}
			cfg := normalCfg
			if j%2 == 1 {
				cfg = migCfg
			}
			m, err := machine.New(cfg)
			if err != nil {
				return table2Job{}, err
			}
			runBatched(w, m, budget)
			return table2Job{name: w.Name(), suite: w.Suite(), stats: m.Stats}, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(names))
	for i := range names {
		normal, mig := halves[2*i], halves[2*i+1]
		rows[i] = table2Row(normal.name, normal.suite, normal.stats, mig.stats)
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

// validateConfigs rejects malformed machine configurations before any
// job is scheduled, so a bad configuration fails once at the batch
// boundary instead of n times inside the pool.
func validateConfigs(cfgs ...machine.Config) error {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("report: machine config %d: %w", i, err)
		}
	}
	return nil
}
