package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/report"
	engine "repro/internal/run"
)

// TestSampleParamsValidate: the -sample-* flag-level rejections,
// before any simulation work starts. Flag values are taken literally:
// a zero interval or cluster count is an error, not a default.
func TestSampleParamsValidate(t *testing.T) {
	for _, bad := range []engine.Spec{
		{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 0, SampleClusters: 4},
		{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 0},
		{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4, SampleWarmup: -1},
	} {
		p := runParams{Spec: bad}
		if err := p.validate(); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
	ok := runParams{Spec: engine.Spec{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4}}
	if err := ok.validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestRunSampleRendering: the CLI plumbing renders the ESTIMATED
// report, appends the verification table when asked, and emits the
// canonical JSON shape under -json.
func TestRunSampleRendering(t *testing.T) {
	p := runParams{Spec: engine.Spec{Workload: "mst", Instr: 200_000, Cores: 4, Sample: true,
		SampleInterval: 20_000, SampleClusters: 3, SampleSeed: 42, SampleWarmup: 1}, Workers: 1}

	var text bytes.Buffer
	if err := runSample(&text, p, false, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text.String(), "ESTIMATED results for mst") {
		t.Fatalf("report missing ESTIMATED label:\n%s", text.String())
	}
	if strings.Contains(text.String(), "sample verification") {
		t.Fatal("verification table printed without -sample-verify")
	}

	var verified bytes.Buffer
	if err := runSample(&verified, p, true, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(verified.String(), "sample verification") {
		t.Fatalf("-sample-verify printed no verification table:\n%s", verified.String())
	}
	if !strings.HasPrefix(verified.String(), text.String()) {
		t.Fatal("verification output does not extend the plain report")
	}

	var js bytes.Buffer
	if err := runSample(&js, p, false, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"estimated": true`) {
		t.Fatalf("JSON not marked estimated:\n%s", js.String())
	}

	// Errors from the pipeline surface, not panic: an unknown workload
	// reaches SampleRun and comes back as its error.
	bad := p
	bad.Workload = "no-such-workload"
	if err := runSample(&bytes.Buffer{}, bad, false, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRunSampleVerifyIsTheFullRun: -sample-verify's actual column is
// the one full pass `emsim -json` makes for the same spec at any -j,
// that run retires exactly the instructions the profile pass counted,
// and on this small config every estimate lands inside its own bar.
func TestRunSampleVerifyIsTheFullRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			p := runParams{Spec: engine.Spec{Workload: "mst", Instr: 200_000, Cores: 4, Sample: true,
				SampleInterval: 20_000, SampleClusters: 3, SampleSeed: 42, SampleWarmup: 1}, Workers: workers}
			var out bytes.Buffer
			if err := runSample(&out, p, true, false); err != nil {
				t.Fatal(err)
			}

			res, err := report.SampleRun(p.Spec, report.RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			full := runParams{Spec: engine.Spec{Workload: "mst", Instr: 200_000, Cores: 4}}
			actual, err := run(&full)
			if err != nil {
				t.Fatal(err)
			}
			// Workloads overshoot the budget at their own chunk
			// granularity; the full run must retire exactly what the
			// profile pass saw.
			if actual.Normal.Instructions != res.TotalInstr || actual.Mig.Instructions != res.TotalInstr {
				t.Fatalf("full run retired %d/%d instructions, profile saw %d",
					actual.Normal.Instructions, actual.Mig.Instructions, res.TotalInstr)
			}
			verify := report.FormatSampleVerify(res, actual.Normal, actual.Mig)
			if want := report.FormatSample(res) + "\n" + verify; out.String() != want {
				t.Fatalf("verify output is not the full run's:\n got %s\nwant %s", out.String(), want)
			}
			if !strings.Contains(verify, "sample verification") || !strings.Contains(verify, "within bars") {
				t.Fatalf("verify table missing headers:\n%s", verify)
			}
			if strings.Contains(verify, " NO") {
				t.Fatalf("estimate outside its bars on the test config:\n%s", verify)
			}
		})
	}
}
