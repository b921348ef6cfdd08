// Interval sampling (-sample): estimate the full-run result from a
// cheap profiling pass plus full-fidelity simulation of representative
// intervals only. The heavy lifting lives in internal/report (shared
// with emsimd and tables, so all surfaces emit identical bytes); this
// file is the flag-to-config plumbing.
package main

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/workloads"
)

// sampleParams carries the -sample-* flag values.
type sampleParams struct {
	Interval uint64
	Clusters int
	Seed     uint64
	Warmup   int
	Verify   bool
}

func (sp sampleParams) validate() error {
	if sp.Interval == 0 {
		return fmt.Errorf("emsim: -sample-interval must be positive")
	}
	if sp.Clusters < 1 {
		return fmt.Errorf("emsim: -sample-clusters must be positive")
	}
	if sp.Warmup < 0 {
		return fmt.Errorf("emsim: -sample-warmup must be >= 0")
	}
	return nil
}

// runSample executes the sampled run and renders it. p must be
// validated (policy/topology normalized) before the call.
func runSample(w io.Writer, reg *workloads.Registry, p runParams, sp sampleParams, jsonOut bool) error {
	cfg := report.SampleConfig{
		Workload: p.Workload,
		Replay:   p.Replay,
		Instr:    p.Instr,
		Cores:    p.Cores,
		Policy:   p.Policy,
		Topology: p.Topology,
		Interval: sp.Interval,
		Clusters: sp.Clusters,
		Seed:     sp.Seed,
		Warmup:   sp.Warmup,
	}
	if cfg.Replay != "" {
		cfg.Workload = "" // trace-driven: the workload flag played no part
	}
	opt := report.RunOptions{Workers: p.Workers}
	res, err := report.SampleRun(reg, cfg, opt)
	if err != nil {
		return err
	}
	if jsonOut {
		return report.WriteSampleJSON(w, res)
	}
	fmt.Fprint(w, report.FormatSample(res))
	if sp.Verify {
		normal, mig, err := report.SampleFullStats(reg, cfg, opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, report.FormatSampleVerify(res, normal, mig))
	}
	return nil
}
