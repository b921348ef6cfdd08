package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	engine "repro/internal/run"
)

// requireNoProducer fails if a stage producer goroutine outlives the
// pass that started it. The serial tee returns only after its producer
// has signalled its exit, so one still listed is at most finishing that
// return; a leaked one stays.
func requireNoProducer(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "repro/internal/mem.(*Stage).produce") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a stage producer goroutine outlived its pass:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// runJSON renders a run's -json output.
func runJSON(t *testing.T, p runParams, res *runResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRunJSON(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSerialTeeStopResumeBytes: the serial tee reads its input through
// a stage, from a generated workload and from a trace. Stopped at an
// event off every boundary, checkpointed and resumed, it renders the
// uninterrupted run's JSON and timeline bytes, and no pass leaves its
// producer goroutine behind.
func TestSerialTeeStopResumeBytes(t *testing.T) {
	tracePath := recordTrace(t, t.TempDir(), "mst", 150_000)
	for _, tc := range []struct {
		name string
		spec engine.Spec
	}{
		{"workload", engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 4}},
		{"replay", engine.Spec{Replay: tracePath, Cores: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runParams{Spec: tc.spec, TimelineInterval: 20_000}
			refp := base
			ref, err := run(&refp)
			if err != nil {
				t.Fatal(err)
			}
			requireNoProducer(t)

			ckpt := filepath.Join(t.TempDir(), "tee.ckpt")
			p := base
			p.Checkpoint, p.CheckpointEvery, p.stopAfter = ckpt, 25_000, ref.Events/2+7
			stopped, err := run(&p)
			if err != nil {
				t.Fatal(err)
			}
			requireNoProducer(t)
			if !stopped.Interrupted || stopped.Events != p.stopAfter {
				t.Fatalf("stop after %d: interrupted %v at event %d", p.stopAfter, stopped.Interrupted, stopped.Events)
			}

			q := runParams{Resume: ckpt, TimelineInterval: base.TimelineInterval}
			resumed, err := run(&q)
			if err != nil {
				t.Fatal(err)
			}
			requireNoProducer(t)
			if got, want := runJSON(t, q, resumed), runJSON(t, refp, ref); !bytes.Equal(got, want) {
				t.Fatalf("resumed JSON diverged:\n got %s\nwant %s", got, want)
			}
			if got, want := rowsBytes(t, stitch(stopped.Timeline, resumed.Timeline)), rowsBytes(t, ref.Timeline); !bytes.Equal(got, want) {
				t.Fatalf("stopped+resumed timeline diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestSerialTeeErrors: a pass the checkpoint hook stops and a damaged
// trace both end the serial tee with the error an unstaged pass
// reports, and neither leaves its producer goroutine behind.
func TestSerialTeeErrors(t *testing.T) {
	dir := t.TempDir()
	p := runParams{
		Spec:       engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 4},
		Checkpoint: filepath.Join(dir, "missing", "run.ckpt"), CheckpointEvery: 10_000,
	}
	if _, err := run(&p); err == nil || !strings.HasPrefix(err.Error(), "emsim: checkpointing failed: ") {
		t.Fatalf("checkpoint into a missing directory: error %v", err)
	}
	requireNoProducer(t)

	b, err := os.ReadFile(recordTrace(t, dir, "mst", 150_000))
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.trace")
	if err := os.WriteFile(damaged, b[:len(b)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	spec := engine.Spec{Replay: damaged, Cores: 4}
	_, want := (&engine.Stream{}).Run(spec.Feed)
	if want == nil {
		t.Fatal("the truncated trace decoded without an error")
	}
	q := runParams{Spec: spec}
	if _, err := run(&q); err == nil || err.Error() != want.Error() {
		t.Fatalf("damaged replay: error %v, want %v", err, want)
	}
	requireNoProducer(t)
}
