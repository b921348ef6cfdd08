package report

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/workloads"
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
// the context delivers every event.
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

			_, err := SampleRun(spec, RunOptions{Workers: 1, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if emitted > k+mem.DefaultBatchLen {
				t.Fatalf("the %s pass took %d events, want at most %d (cancelled at %d)",
					name, emitted, k+mem.DefaultBatchLen, k)
			}
		})
	}
}
