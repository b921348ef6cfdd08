package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/machine"
	engine "repro/internal/run"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

func TestValidateParams(t *testing.T) {
	for _, p := range []runParams{
		{Spec: engine.Spec{Workload: "179.art", Cores: 3}},
		{Spec: engine.Spec{Workload: "179.art", Cores: 0}},
		{Spec: engine.Spec{Workload: "179.art", Cores: -4}},
		{Spec: engine.Spec{Workload: "179.art", Cores: 16}},
		{Spec: engine.Spec{Workload: "no-such-workload", Cores: 4}},
	} {
		if err := p.validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	ok := runParams{Spec: engine.Spec{Workload: "179.art", Cores: 4}}
	if err := ok.validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	// Spelled-out defaults normalize to the omitted form.
	spelled := runParams{Spec: engine.Spec{Workload: "179.art", Cores: 4, Policy: "michaud", Topology: "uniform"}}
	if err := spelled.validate(); err != nil {
		t.Fatalf("spelled-out defaults rejected: %v", err)
	}
	if spelled.Policy != "" || spelled.Topology != "" {
		t.Errorf("defaults not normalized: policy %q topology %q", spelled.Policy, spelled.Topology)
	}
}

// TestResumeMatchesUninterrupted: interrupting a run at an arbitrary
// event, checkpointing, and resuming must produce final stats identical
// to the uninterrupted run — the core resilience guarantee.
func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Spec: engine.Spec{Workload: "179.art", Instr: 300_000, Cores: 4}}

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted || ref.Events == 0 {
		t.Fatalf("reference run: %+v", ref)
	}

	for _, cut := range []uint64{1, 997, 50_000, ref.Events - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			ckpt := filepath.Join(dir, fmt.Sprintf("cut%d.ckpt", cut))
			p := base
			p.Checkpoint = ckpt
			p.stopAfter = cut
			res, err := run(&p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Interrupted || res.Events != cut {
				t.Fatalf("interrupt at %d: %+v", cut, res)
			}

			q := runParams{Resume: ckpt}
			res2, err := run(&q)
			if err != nil {
				t.Fatal(err)
			}
			// Resume restores the run's parameters from the checkpoint.
			if q.Workload != base.Workload || q.Cores != base.Cores || q.Instr != base.Instr {
				t.Fatalf("resume params not restored: %+v", q)
			}
			if res2.Interrupted || res2.Resumed != cut {
				t.Fatalf("resumed run: %+v", res2)
			}
			if res2.Events != ref.Events {
				t.Fatalf("resumed run consumed %d events, reference %d", res2.Events, ref.Events)
			}
			if res2.Normal != ref.Normal {
				t.Errorf("normal stats diverged:\n got %+v\nwant %+v", res2.Normal, ref.Normal)
			}
			if res2.Mig != ref.Mig {
				t.Errorf("migration stats diverged:\n got %+v\nwant %+v", res2.Mig, ref.Mig)
			}
		})
	}
}

// TestResumeFromPeriodicCheckpoint: the -checkpoint-every path — the
// file left by the LAST periodic save resumes to the reference result.
func TestResumeFromPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Spec: engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 2}}

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "periodic.ckpt")
	p := base
	p.Checkpoint = ckpt
	p.CheckpointEvery = 10_000
	p.stopAfter = 34_567 // between periodic saves; final save happens on interrupt
	if _, err := run(&p); err != nil {
		t.Fatal(err)
	}
	ck, err := machine.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Events != 34_567 {
		t.Fatalf("final checkpoint at event %d, want 34567", ck.Events)
	}

	q := runParams{Resume: ckpt}
	res2, err := run(&q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Normal != ref.Normal || res2.Mig != ref.Mig {
		t.Fatalf("periodic-checkpoint resume diverged from reference")
	}
}

// TestResumeReplayTrace: checkpoint/resume also works when the machines
// are driven from a recorded trace file instead of a live workload.
func TestResumeReplayTrace(t *testing.T) {
	dir := t.TempDir()

	tracePath := filepath.Join(dir, "w.trace")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := suite.Registry().New("mst")
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(tw, 150_000)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base := runParams{Spec: engine.Spec{Replay: tracePath, Cores: 4}}
	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Events != tw.Events() {
		t.Fatalf("replay consumed %d events, trace has %d", ref.Events, tw.Events())
	}

	ckpt := filepath.Join(dir, "replay.ckpt")
	p := base
	p.Checkpoint = ckpt
	p.stopAfter = ref.Events / 2
	if _, err := run(&p); err != nil {
		t.Fatal(err)
	}
	q := runParams{Resume: ckpt}
	res2, err := run(&q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Normal != ref.Normal || res2.Mig != ref.Mig {
		t.Fatal("trace-replay resume diverged from reference")
	}
}

// TestSIGINTGracefulStop sends a real SIGINT to the process mid-run and
// checks the graceful-stop path end to end: the run aborts early, a
// final checkpoint lands on disk, and resuming it reproduces the
// uninterrupted run's stats exactly — from whatever arbitrary event the
// signal happened to land on.
func TestSIGINTGracefulStop(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Spec: engine.Spec{Workload: "181.mcf", Instr: 3_000_000, Cores: 4}}

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "sigint.ckpt")
	p := base
	p.Checkpoint = ckpt
	var stop atomic.Bool
	p.stop = &stop
	watchInterrupt(&stop)
	go func() {
		time.Sleep(20 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGINT)
	}()
	res, err := run(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		// The run finished before the signal landed; the graceful path
		// wasn't exercised but nothing is wrong. Don't fail on slow CI.
		t.Skip("run completed before SIGINT arrived")
	}
	if res.Events >= ref.Events {
		t.Fatalf("interrupted run consumed %d events, reference only %d", res.Events, ref.Events)
	}

	q := runParams{Resume: ckpt}
	res2, err := run(&q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res.Events {
		t.Fatalf("resumed from event %d, interrupt was at %d", res2.Resumed, res.Events)
	}
	if res2.Normal != ref.Normal || res2.Mig != ref.Mig {
		t.Fatalf("SIGINT resume diverged:\n got %+v\nwant %+v", res2.Mig, ref.Mig)
	}
}

// TestParallelMatchesSerialTee: the two-pass concurrent path must
// produce stats bit-identical to the legacy serial tee pass, for both a
// workload source and a trace replay, including the event count.
func TestParallelMatchesSerialTee(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "golden.trace")
	{
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		w, err := suite.Registry().New("bh")
		if err != nil {
			t.Fatal(err)
		}
		tw, err := trace.NewWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(tw, 100_000)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		base runParams
	}{
		{"workload", runParams{Spec: engine.Spec{Workload: "181.mcf", Instr: 300_000, Cores: 4}}},
		{"replay", runParams{Spec: engine.Spec{Replay: tracePath, Cores: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.base
			sp.Workers = 1
			serial, err := run(&sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := tc.base
			pp.Workers = 2
			parallel, err := run(&pp)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Normal != parallel.Normal || serial.Mig != parallel.Mig {
				t.Fatalf("stats diverged:\nserial:   %+v %+v\nparallel: %+v %+v",
					serial.Normal, serial.Mig, parallel.Normal, parallel.Mig)
			}
			if serial.Events != parallel.Events {
				t.Fatalf("events diverged: serial %d, parallel %d", serial.Events, parallel.Events)
			}
		})
	}
}

// TestIndependentNeedsTwoCPUs pins run's choice of pass: independent
// passes only off the serial -j 1, with no checkpoint state in play,
// and only when at least two CPUs can run them at once.
func TestIndependentNeedsTwoCPUs(t *testing.T) {
	for _, tc := range []struct {
		workers  int
		ckpt     string
		resuming bool
		procs    int
		want     bool
	}{
		{workers: 0, procs: 2, want: true},
		{workers: 2, procs: 8, want: true},
		{workers: 0, procs: 1},
		{workers: 2, procs: 1},
		{workers: 1, procs: 2},
		{workers: 0, ckpt: "run.ckpt", procs: 2},
		{workers: 0, resuming: true, procs: 2},
	} {
		p := runParams{Workers: tc.workers, Checkpoint: tc.ckpt}
		if got := p.independent(tc.resuming, tc.procs); got != tc.want {
			t.Errorf("-j %d, checkpoint %q, resuming %v, %d CPUs: independent = %v, want %v",
				tc.workers, tc.ckpt, tc.resuming, tc.procs, got, tc.want)
		}
	}
}

// TestParallelStopAfterDeterministic: the per-pass event counter makes
// the stop-after hook deterministic even on the concurrent path — both
// machines halt at exactly the same event.
func TestParallelStopAfterDeterministic(t *testing.T) {
	sp := runParams{Spec: engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 4}, Workers: 1, stopAfter: 34_567}
	serial, err := run(&sp)
	if err != nil {
		t.Fatal(err)
	}
	pp := sp
	pp.Workers = 2
	parallel, err := run(&pp)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Interrupted || !parallel.Interrupted {
		t.Fatalf("stop-after did not trigger: serial %+v parallel %+v", serial, parallel)
	}
	if serial.Normal != parallel.Normal || serial.Mig != parallel.Mig || serial.Events != parallel.Events {
		t.Fatalf("stop-after runs diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSIGTERMGracefulStop mirrors TestSIGINTGracefulStop for SIGTERM:
// the shared handler treats both signals as the same graceful-stop
// request, so a terminated run leaves a resumable EMCKPT2 checkpoint
// that reproduces the uninterrupted run's stats exactly.
func TestSIGTERMGracefulStop(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Spec: engine.Spec{Workload: "181.mcf", Instr: 3_000_000, Cores: 4}}

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "sigterm.ckpt")
	p := base
	p.Checkpoint = ckpt
	var stop atomic.Bool
	p.stop = &stop
	watchInterrupt(&stop)
	go func() {
		time.Sleep(20 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	res, err := run(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		// The run finished before the signal landed; the graceful path
		// wasn't exercised but nothing is wrong. Don't fail on slow CI.
		t.Skip("run completed before SIGTERM arrived")
	}

	magic := make([]byte, 8)
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatalf("SIGTERM left no checkpoint: %v", err)
	}
	if _, err := io.ReadFull(f, magic); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if string(magic) != "EMCKPT2\n" {
		t.Fatalf("checkpoint magic %q, want EMCKPT2", magic)
	}

	q := runParams{Resume: ckpt}
	res2, err := run(&q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res.Events {
		t.Fatalf("resumed from event %d, SIGTERM was at %d", res2.Resumed, res.Events)
	}
	if res2.Normal != ref.Normal || res2.Mig != ref.Mig {
		t.Fatalf("SIGTERM resume diverged:\n got %+v\nwant %+v", res2.Mig, ref.Mig)
	}
}

// TestWriteRunJSON: -json renders through the shared report encoder —
// deterministic bytes, workload identity, and the trace-driven mode
// reporting the replay path instead of a meaningless workload name.
func TestWriteRunJSON(t *testing.T) {
	p := runParams{Spec: engine.Spec{Workload: "mst", Instr: 100_000, Cores: 4}}
	res, err := run(&p)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := writeRunJSON(&a, p, res); err != nil {
		t.Fatal(err)
	}
	if err := writeRunJSON(&b, p, res); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("writeRunJSON is not deterministic")
	}
	var out struct {
		Workload string `json:"workload"`
		Replay   string `json:"replay"`
		Instr    uint64 `json:"instr"`
		Events   uint64 `json:"events"`
	}
	if err := json.Unmarshal(a.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Workload != "mst" || out.Instr != 100_000 || out.Events != res.Events {
		t.Fatalf("bad JSON result: %s", a.String())
	}

	rp := runParams{Spec: engine.Spec{Replay: "some.trace", Workload: "mst", Instr: 1, Cores: 4}}
	var c bytes.Buffer
	if err := writeRunJSON(&c, rp, res); err != nil {
		t.Fatal(err)
	}
	var traced struct {
		Workload string `json:"workload"`
		Replay   string `json:"replay"`
	}
	if err := json.Unmarshal(c.Bytes(), &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Workload != "" || traced.Replay != "some.trace" {
		t.Fatalf("trace-driven JSON kept the workload name: %s", c.String())
	}
}

// TestWriteTimelineCloseError: a timeline destination that cannot be
// flushed (a directory) reports the failure instead of dropping it.
func TestWriteTimelineCloseError(t *testing.T) {
	if err := writeTimeline(t.TempDir(), nil, 0); err == nil {
		t.Fatal("writing a timeline to a directory succeeded")
	}
}
