// Package runner is the experiment engine: a worker pool that fans
// independent simulation jobs out across the host's cores while keeping
// the results exactly as a serial run would produce them.
//
// Every experiment in this reproduction (the Table 1/2 rows, the
// Figure 3/4/5 panels, the working-set sweep) is a set of *independent*
// trace-driven simulations: each job owns its own machines, generators
// and RNG state, and no job reads another's output. emsim's plain run is
// not such a set: its two machines see one stream through one shared
// L1 front end (run.Pair), so it is one pass and never a pool job. That independence
// is the whole determinism model — parallel execution changes only the
// wall-clock interleaving, never the numbers — so the engine's contract
// is simply:
//
//   - results[i] is whatever fn(ctx, i) returned, for every i, in input
//     order, regardless of worker count or completion order;
//   - Workers == 1 runs the jobs inline on the calling goroutine, in
//     order — the legacy serial path, byte-identical by construction;
//   - the first error (lowest job index among failures) cancels the
//     remaining jobs and is returned; a job that returns the
//     cancellation itself is not a failure, so a job the cancel stopped
//     never hides the error that caused it;
//   - OnDone fires once per completed job, serialised, so progress
//     reporting needs no locking of its own.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Config shapes one Map call.
type Config struct {
	// Workers is the worker-pool size: 0 selects runtime.NumCPU(), 1
	// forces the serial in-caller path, and anything larger bounds the
	// number of jobs in flight. More workers than jobs is clamped.
	Workers int
	// OnDone, when non-nil, is called once per finished job with its
	// index, from at most one goroutine at a time (calls are serialised
	// under an internal mutex). Completion order — and therefore call
	// order — is nondeterministic with Workers > 1.
	OnDone func(index int)
}

// Pool resolves the effective pool size for n jobs: the number of
// workers Map runs them on.
func (c Config) Pool(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) on the configured worker
// pool and returns the results in input order. See the package comment
// for the determinism contract. A nil ctx means context.Background().
func Map[T any](ctx context.Context, n int, cfg Config, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	if cfg.Pool(n) == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, &JobError{Index: i, Err: err}
			}
			results[i] = r
			if cfg.OnDone != nil {
				cfg.OnDone(i)
			}
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fails := &failures{firstIdx: -1}
	fail := func(i int, err error) {
		fails.record(i, err)
		cancel()
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Pool(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain: the feeder may already have queued us work
				}
				r, err := fn(ctx, i)
				if err != nil {
					if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
						fail(i, err) // not a job the cancellation stopped
					}
					continue
				}
				results[i] = r
				if cfg.OnDone != nil {
					fails.serialize(func() { cfg.OnDone(i) })
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if idx, err := fails.first(); idx >= 0 {
		return nil, &JobError{Index: idx, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// failures is Map's cross-worker bookkeeping: the winning (lowest
// index) job error, plus the mutex that also serialises OnDone
// callbacks — one lock, so a progress callback never interleaves with
// error recording.
type failures struct {
	mu sync.Mutex
	//emlint:guardedby mu
	firstErr error
	//emlint:guardedby mu
	firstIdx int // -1 until a job fails
}

// record notes a failed job, keeping the lowest index so the surfaced
// error does not depend on scheduling.
func (f *failures) record(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.firstIdx == -1 || i < f.firstIdx {
		f.firstIdx, f.firstErr = i, err
	}
}

// first returns the lowest failed job index and its error; -1 means
// every job succeeded.
func (f *failures) first() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstIdx, f.firstErr
}

// serialize runs cb under the bookkeeping mutex (the OnDone contract:
// at most one callback at a time).
func (f *failures) serialize(cb func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cb()
}

// JobError wraps a job function's error with the index of the job that
// produced it. When several parallel jobs fail, Map reports the one
// with the lowest index, so the surfaced error does not depend on
// scheduling.
type JobError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("runner: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's own error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }
