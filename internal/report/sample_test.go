package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/run"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// sampleTestConfig is a small-but-real configuration: enough intervals
// for the clustering to have choices, small enough to keep the test
// fast.
func sampleTestConfig() run.Spec {
	return run.Spec{
		Workload:       "mst",
		Instr:          200_000,
		Cores:          4,
		Sample:         true,
		SampleInterval: 20_000,
		SampleClusters: 3,
		SampleSeed:     42,
		SampleWarmup:   1,
	}
}

// TestSampleRunShape: the sampled run produces a marked-estimated
// result whose accounting fields are internally consistent.
func TestSampleRunShape(t *testing.T) {
	r, err := SampleRun(sampleTestConfig(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Estimated {
		t.Fatal("result not marked estimated")
	}
	if r.Intervals < 5 {
		t.Fatalf("only %d intervals; the config should produce ~10", r.Intervals)
	}
	if r.MeasuredIntervals == 0 || r.MeasuredIntervals > r.Intervals {
		t.Fatalf("measured %d of %d intervals", r.MeasuredIntervals, r.Intervals)
	}
	if r.ClustersUsed < 1 || r.ClustersUsed > 3 {
		t.Fatalf("clusters used = %d, requested 3", r.ClustersUsed)
	}
	if r.SimulatedEvents == 0 || r.SimulatedEvents > r.Events {
		t.Fatalf("simulated %d of %d events", r.SimulatedEvents, r.Events)
	}
	if r.Savings < 1 {
		t.Fatalf("savings %.2fx < 1", r.Savings)
	}
	if len(r.Estimates) == 0 {
		t.Fatal("no estimates")
	}
	for _, e := range r.Estimates {
		if e.Lo > e.Total || e.Total > e.Hi {
			t.Errorf("%s/%s: total %.0f outside its own bar [%.0f, %.0f]",
				e.Machine, e.Metric, e.Total, e.Lo, e.Hi)
		}
	}
}

// TestSampleRunDeterministicAcrossWorkers: the canonical JSON bytes are
// identical for every worker count — chain jobs merge in index order.
func TestSampleRunDeterministicAcrossWorkers(t *testing.T) {
	var ref bytes.Buffer
	r, err := SampleRun(sampleTestConfig(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSampleJSON(&ref, r); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		r, err := SampleRun(sampleTestConfig(), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteSampleJSON(&got, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d JSON diverged:\n%s\nvs\n%s", workers, got.String(), ref.String())
		}
	}
}

// TestSampleRunErrors: the driver rejects configurations the pipeline
// cannot run.
func TestSampleRunErrors(t *testing.T) {
	for name, mutate := range map[string]func(*run.Spec){
		"zero interval":              func(c *run.Spec) { c.SampleInterval = 0 },
		"zero clusters":              func(c *run.Spec) { c.SampleClusters = 0 },
		"bad cores":                  func(c *run.Spec) { c.Cores = 3 },
		"bad workload":               func(c *run.Spec) { c.Workload = "no-such-workload" },
		"bad policy":                 func(c *run.Spec) { c.Policy = "no-such-policy" },
		"missing trace":              func(c *run.Spec) { c.Workload = ""; c.Replay = "no/such/file" },
		"zero instr means no events": func(c *run.Spec) { c.Instr = 0 },
	} {
		cfg := sampleTestConfig()
		mutate(&cfg)
		if _, err := SampleRun(cfg, RunOptions{Workers: 1}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSampleReplayMatchesWorkload: sampling a recorded trace of the
// workload produces the same estimates as sampling the workload itself —
// the event stream, not its transport, determines the result.
func TestSampleReplayMatchesWorkload(t *testing.T) {
	cfg := sampleTestConfig()
	ref, err := SampleRun(cfg, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var refJSON bytes.Buffer
	if err := WriteSampleJSON(&refJSON, ref); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "mst.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := suite.Registry().New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(tw, cfg.Instr)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Workload = ""
	rcfg.Instr = 0
	rcfg.Replay = path
	got, err := SampleRun(rcfg, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Identity fields differ (replay path vs workload name); the
	// estimates and accounting must not.
	if got.Events != ref.Events || got.SimulatedEvents != ref.SimulatedEvents ||
		got.Intervals != ref.Intervals || got.MeasuredIntervals != ref.MeasuredIntervals {
		t.Fatalf("replay accounting diverged: %+v vs %+v", got, ref)
	}
	for i, e := range got.Estimates {
		if e != ref.Estimates[i] {
			t.Fatalf("estimate %d diverged: %+v vs %+v", i, e, ref.Estimates[i])
		}
	}
}

// TestFormatSample: the human rendering is labelled ESTIMATED and
// carries every estimate row.
func TestFormatSample(t *testing.T) {
	r, err := SampleRun(sampleTestConfig(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSample(r)
	if !strings.HasPrefix(out, "ESTIMATED results for mst") {
		t.Fatalf("missing ESTIMATED label:\n%s", out)
	}
	if !strings.Contains(out, "95% interval") || !strings.Contains(out, machine.MetricMigrations) {
		t.Fatalf("estimate table incomplete:\n%s", out)
	}
	// The stack-eviction note only appears when the profiler dropped
	// lines; this config must not trigger it.
	if strings.Contains(out, "profiling stack evicted") {
		t.Fatalf("unexpected stack-drop note:\n%s", out)
	}
}

// TestSampleBatch: the multi-workload driver returns results in input
// order, byte-identical across worker counts, and FormatSampleBatch
// renders one row per workload.
func TestSampleBatch(t *testing.T) {
	base := sampleTestConfig()
	names := []string{"mst", "em3d"}
	ref, err := SampleBatch(names, base, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 || ref[0].Workload != "mst" || ref[1].Workload != "em3d" {
		t.Fatalf("batch order wrong: %+v", ref)
	}
	par, err := SampleBatch(names, base, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		var a, b bytes.Buffer
		if err := WriteSampleJSON(&a, ref[i]); err != nil {
			t.Fatal(err)
		}
		if err := WriteSampleJSON(&b, par[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("batch result %d diverged across worker counts", i)
		}
	}
	out := FormatSampleBatch(ref)
	for _, n := range names {
		if !strings.Contains(out, n) {
			t.Fatalf("batch table missing %s:\n%s", n, out)
		}
	}
	if !strings.Contains(out, "savings") {
		t.Fatalf("batch table missing savings column:\n%s", out)
	}

	if _, err := SampleBatch([]string{"no-such-workload"}, base, RunOptions{Workers: 1}); err == nil {
		t.Fatal("bad workload accepted by batch")
	}
}
