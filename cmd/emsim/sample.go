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
)

// runSample executes the sampled run and renders it, with the
// estimate-vs-actual table when verify is set. p must be validated
// (policy/topology normalized) before the call.
func runSample(w io.Writer, p runParams, verify, jsonOut bool) error {
	spec := p.Spec
	if spec.Replay != "" {
		spec.Workload = "" // trace-driven: the workload flag played no part
	}
	opt := report.RunOptions{Workers: p.Workers}
	res, err := report.SampleRun(spec, opt)
	if err != nil {
		return err
	}
	if jsonOut {
		return report.WriteSampleJSON(w, res)
	}
	fmt.Fprint(w, report.FormatSample(res))
	if verify {
		normal, mig, err := report.SampleFullStats(spec, opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, report.FormatSampleVerify(res, normal, mig))
	}
	return nil
}
