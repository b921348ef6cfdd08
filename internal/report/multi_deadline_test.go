package report

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/run"
	"repro/internal/workloads"
)

// TestMultiRunStopsAtDeadline: a multiprogrammed job whose context ends
// mid-pass stops within a batch or two, in the co-scheduled cluster and
// in the solo baselines alike, returns the cancellation, and leaves no
// producer goroutine behind. Program 0 cancels after k events of its
// first (cluster) or second (solo) run, then offers the stream empty
// batches for up to 2 s before it goes on to its budget, so a pass that
// ignores the context delivers every event; program 1 streams steadily.
func TestMultiRunStopsAtDeadline(t *testing.T) {
	const (
		k      = 4 * mem.DefaultBatchLen
		budget = 400_000
	)
	for pass, name := range []string{"cluster", "solo"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls, emitted, steady := 0, uint64(0), uint64(0)
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
			reg.Register("steady", func() workloads.Workload {
				return runFunc(func(sink mem.Sink, budget uint64) {
					for i := uint64(0); i < budget; i++ {
						sink.Instr(1)
						sink.Access(mem.Addr(i%4096)*64, mem.Store)
						steady += 2
					}
				})
			})
			spec := run.Spec{Programs: []string{"cancelling", "steady"}, Instr: budget, Cores: 4, Registry: reg}

			before := runtime.NumGoroutine()
			_, err := MultiRun(spec, RunOptions{Workers: 1, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if emitted > k+mem.DefaultBatchLen {
				t.Fatalf("the %s pass took %d events of program 0, want at most %d (cancelled at %d)",
					name, emitted, k+mem.DefaultBatchLen, k)
			}
			if pass == 0 && steady > 2*k {
				t.Fatalf("program 1 ran on for %d events after program 0 cancelled at %d", steady, k)
			}
			for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(end) {
					t.Fatalf("%d goroutines after MultiRun returned, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
