package report

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// runFunc adapts a function to a workload for one test's registry.
type runFunc func(sink mem.Sink, budget uint64)

func (runFunc) Name() string                       { return "cancelling" }
func (runFunc) Suite() string                      { return "olden" }
func (runFunc) Description() string                { return "cancels its context mid-stream" }
func (f runFunc) Run(sink mem.Sink, budget uint64) { f(sink, budget) }

// TestSampleRunStopsAtDeadline: a sampled job whose context ends
// mid-pass stops within a batch, in the profile pass and in a chain
// alike, and returns the cancellation. The source cancels after k
// events, then offers the stream empty batches (each a chance to stop)
// for up to 2 s before it goes on to its budget, so a pass that ignores
// the context delivers every event. The profile pass reads its input
// through a mem.Stage, whose producer must be gone when SampleRun
// returns.
func TestSampleRunStopsAtDeadline(t *testing.T) {
	const k = 4 * mem.DefaultBatchLen
	for pass, name := range []string{"profile", "chain"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls, emitted := 0, uint64(0)
			reg := workloads.NewRegistry()
			reg.Register("cancelling", func() workloads.Workload {
				return runFunc(func(sink mem.Sink, budget uint64) {
					call := calls
					calls++
					var empty mem.Batch
					for i := uint64(0); i < budget; i++ {
						sink.Instr(1)
						sink.Access(mem.Addr(i%8192)*64, mem.Load)
						if call != pass {
							continue
						}
						if emitted += 2; emitted == k {
							cancel()
							for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
								sink.(mem.BatchSink).AccessBatch(&empty)
								runtime.Gosched()
							}
						}
					}
				})
			})
			spec := sampleTestConfig()
			spec.Workload, spec.Registry = "cancelling", reg

			before := runtime.NumGoroutine()
			_, err := SampleRun(spec, RunOptions{Workers: 1, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if emitted > k+mem.DefaultBatchLen {
				t.Fatalf("the %s pass took %d events, want at most %d (cancelled at %d)",
					name, emitted, k+mem.DefaultBatchLen, k)
			}
			waitGoroutines(t, before, "SampleRun")
		})
	}
}

// waitGoroutines fails unless the goroutine count falls back to before
// within a second of fn returning.
func waitGoroutines(t *testing.T, before int, fn string) {
	t.Helper()
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after %s returned, %d before", runtime.NumGoroutine(), fn, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSampleRunDamagedReplay: a trace damaged mid-file stops the
// profile pass with the reader's own typed error, at the offset a
// direct replay of the file reports, and leaves no producer behind.
func TestSampleRunDamagedReplay(t *testing.T) {
	cfg := sampleTestConfig()
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
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size / 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var want *trace.FormatError
	if _, err := replayFile(path); !errors.As(err, &want) || !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("direct replay of the damaged trace returned %v, want a truncation", err)
	}

	cfg.Workload, cfg.Instr, cfg.Replay = "", 0, path
	before := runtime.NumGoroutine()
	_, err = SampleRun(cfg, RunOptions{Workers: 1})
	var got *trace.FormatError
	if !errors.As(err, &got) {
		t.Fatalf("SampleRun returned %v, want a *trace.FormatError", err)
	}
	if *got != *want {
		t.Fatalf("SampleRun returned %v, want %v", got, want)
	}
	waitGoroutines(t, before, "SampleRun")
}

// replayFile decodes a whole trace file into nothing.
func replayFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := trace.NewBatchReader(f)
	if err != nil {
		return 0, err
	}
	return r.ReplayBatches(discard{}, nil)
}

// discard is a batch kernel that drops everything.
type discard struct{ mem.NullSink }

func (discard) AccessBatch(*mem.Batch) {}
