package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	// -j is 0 (all cores) or a worker count, for a plain run and for the
	// pools it sizes; a negative one is an error, not all cores.
	for _, spec := range []engine.Spec{
		{Workload: "179.art", Cores: 4},
		{Workload: "179.art", Cores: 4, Sample: true, SampleInterval: 1, SampleClusters: 1},
	} {
		for _, workers := range []int{0, 1, 8} {
			ok := runParams{Spec: spec, Workers: workers}
			if err := ok.validate(); err != nil {
				t.Errorf("valid params %+v at -j %d rejected: %v", spec, workers, err)
			}
		}
		neg := runParams{Spec: spec, Workers: -3}
		if err := neg.validate(); err == nil || !strings.Contains(err.Error(), "-j") {
			t.Errorf("%+v at -j -3: error %v, want one naming -j", spec, err)
		}
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

// TestAsyncStopLandsOnOneEvent: a stop requested from another
// goroutine, as the SIGINT handler does, lands on one event for both
// machines at the default -j: the partial result counts the same
// instructions and references for the baseline and the migration chip,
// and equals a run stopped after exactly its event count.
func TestAsyncStopLandsOnOneEvent(t *testing.T) {
	base := runParams{Spec: engine.Spec{Workload: "181.mcf", Instr: 20_000_000, Cores: 4}}
	p := base
	var stop atomic.Bool
	p.stop = &stop
	go func() {
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
	}()
	res, err := run(&p)
	if err != nil {
		t.Fatal(err)
	}
	requireNoProducer(t)
	if !res.Interrupted || res.Events == 0 {
		t.Skipf("the stop request did not land mid-run (interrupted %v at event %d)", res.Interrupted, res.Events)
	}
	n, m := res.Normal, res.Mig
	if n.Instructions != m.Instructions || n.IFetches != m.IFetches || n.Loads != m.Loads || n.Stores != m.Stores {
		t.Fatalf("the machines stopped apart: normal %d instr %d/%d/%d refs, migration %d instr %d/%d/%d refs",
			n.Instructions, n.IFetches, n.Loads, n.Stores, m.Instructions, m.IFetches, m.Loads, m.Stores)
	}
	q := base
	q.stopAfter = res.Events
	want, err := run(&q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Events != res.Events || want.Normal != res.Normal || want.Mig != res.Mig {
		t.Fatalf("stopped at event %d, but a run stopped after %d events differs:\n got %+v\n     %+v\nwant %+v\n     %+v",
			res.Events, want.Events, res.Normal, res.Mig, want.Normal, want.Mig)
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
