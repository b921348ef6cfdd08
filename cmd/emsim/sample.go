// Interval sampling (-sample): estimate the full-run result from a
// cheap profiling pass plus full-fidelity simulation of representative
// intervals only. The heavy lifting lives in internal/report (shared
// with emsimd and tables, so all surfaces emit identical bytes); this
// file is the rendering plumbing.
package main

import (
	"fmt"
	"io"

	"repro/internal/report"
	engine "repro/internal/run"
)

// runSample executes the sampled run and renders it, with the
// estimate-vs-actual table when verify is set. The actual column is
// the one full pass `emsim -json` makes for the same spec.
// p must be validated (policy/topology normalized) before the call.
func runSample(w io.Writer, p runParams, verify, jsonOut bool) error {
	spec := p.Spec
	if spec.Replay != "" {
		spec.Workload = "" // trace-driven: the workload flag played no part
	}
	res, err := report.SampleRun(spec, report.RunOptions{Workers: p.Workers})
	if err != nil {
		return err
	}
	if jsonOut {
		return report.WriteSampleJSON(w, res)
	}
	fmt.Fprint(w, report.FormatSample(res))
	if verify {
		full := runParams{Spec: engine.Spec{Workload: spec.Workload, Replay: spec.Replay, Instr: spec.Instr,
			Cores: spec.Cores, Policy: spec.Policy, Topology: spec.Topology}}
		actual, err := run(&full)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, report.FormatSampleVerify(res, actual.Normal, actual.Mig))
	}
	return nil
}
