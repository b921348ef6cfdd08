package runner

import (
	"context"
	"sync"
	"sync/atomic"
)

// StopWhenDone translates context cancellation into the event-loop stop
// protocol the simulator sinks understand: the returned flag flips to
// true as soon as any of the given contexts is done, and a sink polling
// it per event aborts the pass at the next event boundary.
//
// Workload generators cannot return early and machine passes run for
// millions of events between function returns, so a context deadline on
// its own would only be observed at job granularity. This helper is the
// bridge: run.Stream.RunContext hands the flag to the pass's stream, so
// a service job or a sampled pass observes its deadline at event
// granularity instead.
//
// release must be called when the pass ends (typically deferred); it
// unblocks the watcher goroutines and waits for them to exit, so no
// goroutine outlives the job that spawned it. Nil contexts are ignored.
func StopWhenDone(ctxs ...context.Context) (stop *atomic.Bool, release func()) {
	flag := new(atomic.Bool)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, ctx := range ctxs {
		if ctx == nil {
			continue
		}
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			select {
			case <-ctx.Done():
				flag.Store(true)
			case <-done:
			}
		}(ctx)
	}
	var once sync.Once
	return flag, func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
