package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/machine"
)

// smallSpec is fast enough to run many times per test.
var smallSpec = RunSpec{Workload: "mst", Instr: 100_000, Cores: 4}

// longSpec runs long enough that a test can act while it is in flight.
var longSpec = RunSpec{Workload: "181.mcf", Instr: 500_000_000, Cores: 4}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunCachesByteIdentical: a repeat of the same request is a cache
// hit serving the exact bytes of the cold run, and the hit/miss
// counters record both paths.
func TestRunCachesByteIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	ctx := context.Background()
	cold, cached, err := s.Run(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first run reported as cached")
	}
	warm, cached, err := s.Run(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("repeat run not served from cache")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached bytes diverge from cold run:\n%s\nvs\n%s", cold, warm)
	}
	// Field-order / default insensitivity reaches the cache too: the
	// same request spelled differently is still a hit.
	var respelled RunSpec
	if err := json.Unmarshal([]byte(`{"cores":4,"workload":"mst","instr":100000}`), &respelled); err != nil {
		t.Fatal(err)
	}
	again, cached, err := s.Run(ctx, respelled)
	if err != nil || !cached || !bytes.Equal(cold, again) {
		t.Fatalf("respelled request: cached=%v err=%v", cached, err)
	}
	m := s.Metrics()
	if m.CacheHits.Value() != 2 || m.CacheMisses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", m.CacheHits.Value(), m.CacheMisses.Value())
	}
	var res struct {
		Workload string `json:"workload"`
		Events   uint64 `json:"events"`
	}
	if err := json.Unmarshal(cold, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mst" || res.Events == 0 {
		t.Fatalf("result body malformed: %s", cold)
	}
}

// TestAdmissionQueueOverflow: with one busy worker and a queue of one,
// the third concurrent request bounces with ErrQueueFull; releasing the
// slot lets the queued one through.
func TestAdmissionQueueOverflow(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	release, err := s.admit(ctx) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan error, 1)
	go func() {
		rel, err := s.admit(ctx)
		if err == nil {
			rel()
		}
		queuedDone <- err
	}()
	waitUntil(t, "second request to queue", func() bool {
		return s.Metrics().QueueDepth.Value() == 1
	})

	if _, err := s.admit(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third admit: %v, want ErrQueueFull", err)
	}
	if s.Metrics().Rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", s.Metrics().Rejected.Value())
	}

	release() // free the slot; the queued request must get it
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued admit failed: %v", err)
	}
}

// TestAdmissionQueueDisabled: QueueDepth < 0 means no waiting — a busy
// service bounces immediately, an idle one admits.
func TestAdmissionQueueDisabled(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	ctx := context.Background()
	release, err := s.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.admit(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("busy no-queue admit: %v, want ErrQueueFull", err)
	}
	release()
	release2, err := s.admit(ctx)
	if err != nil {
		t.Fatalf("idle no-queue admit: %v", err)
	}
	release2()
}

// TestQueuedRequestObservesCancellation: a request waiting for a slot
// abandons the queue when its context ends.
func TestQueuedRequestObservesCancellation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.admit(ctx)
		errc <- err
	}()
	waitUntil(t, "request to queue", func() bool { return s.Metrics().QueueDepth.Value() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued admit returned %v, want context.Canceled", err)
	}
	if s.Metrics().QueueDepth.Value() != 0 {
		t.Fatal("queue depth not restored after cancellation")
	}
}

// TestDeadlineExpiredJobDiscardsPartialWork: a running job observes its
// deadline at event granularity, the partial result is discarded (not
// cached), and the error surfaces as context.DeadlineExceeded.
func TestDeadlineExpiredJobDiscardsPartialWork(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.Run(ctx, longSpec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want DeadlineExceeded", err)
	}
	// The 500M-instruction run takes far longer than the deadline; the
	// generous bound only proves the job aborted mid-stream instead of
	// running to completion.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("job ran %v after a 50ms deadline", elapsed)
	}
	if s.cache.len() != 0 {
		t.Fatal("partial result was cached")
	}
	if s.Metrics().Cancelled.Value() == 0 {
		t.Fatal("cancellation not counted")
	}
	if s.Metrics().InFlight.Value() != 0 {
		t.Fatal("in-flight gauge not restored")
	}
}

// TestDrainFinishesInFlightAndRefusesNew: drain with a comfortable
// deadline lets the running job finish and produce its result, while
// new work is refused with ErrDraining.
func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	s := New(Config{Workers: 1})
	type result struct {
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		b, _, err := s.Run(context.Background(), smallSpec)
		resc <- result{b, err}
	}()
	waitUntil(t, "job to start", func() bool {
		return s.Metrics().InFlight.Value() == 1 || s.Metrics().Completed.Value() == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cancelled := s.Drain(ctx); cancelled {
		t.Fatal("drain had to cancel a fast job")
	}
	r := <-resc
	if r.err != nil || len(r.body) == 0 {
		t.Fatalf("in-flight job did not finish cleanly: %v", r.err)
	}
	if _, _, err := s.Run(context.Background(), smallSpec); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Run: %v, want ErrDraining", err)
	}
}

// TestDrainCheckpointsCancelledJob: when drain's deadline expires, the
// in-flight job is cancelled, writes a resumable EMCKPT2 file into the
// spool directory, and reports it in the error.
func TestDrainCheckpointsCancelledJob(t *testing.T) {
	spool := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: spool})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Run(context.Background(), longSpec)
		errc <- err
	}()
	waitUntil(t, "job to start", func() bool { return s.Metrics().InFlight.Value() == 1 })

	expired, cancelCtx := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelCtx()
	if cancelled := s.Drain(expired); !cancelled {
		t.Fatal("drain finished without cancelling the long job")
	}
	err := <-errc
	var drained *DrainedError
	if !errors.As(err, &drained) {
		t.Fatalf("job returned %v, want DrainedError", err)
	}
	if drained.Checkpoint == "" {
		t.Fatal("drained job reported no checkpoint")
	}
	if filepath.Dir(drained.Checkpoint) != spool {
		t.Fatalf("checkpoint %s not in spool %s", drained.Checkpoint, spool)
	}
	ck, err := machine.LoadCheckpoint(drained.Checkpoint)
	if err != nil {
		t.Fatalf("spooled checkpoint unreadable: %v", err)
	}
	if ck.Workload != longSpec.Workload || ck.Cores != longSpec.Cores || ck.Events == 0 {
		t.Fatalf("checkpoint does not describe the drained run: %+v", ck)
	}
	if _, err := ck.Machine("normal"); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Machine("migration"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotShape: the published snapshot carries every
// service metric in fixed order.
func TestMetricsSnapshotShape(t *testing.T) {
	var m Metrics
	m.CacheHits.Inc()
	m.QueueDepth.Add(3)
	snap := m.Snapshot()
	want := []string{
		"service_admitted", "service_rejected", "service_completed", "service_cancelled",
		"service_cache_hits", "service_cache_misses", "service_queue_depth", "service_inflight",
		"store_hits", "store_errors", "store_recovered_jobs", "store_quarantined",
	}
	if len(snap.Counters) != len(want) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Counters), len(want))
	}
	for i, n := range want {
		if snap.Counters[i].Name != n {
			t.Fatalf("counter %d = %s, want %s", i, snap.Counters[i].Name, n)
		}
	}
	if v, _ := snap.Counter("service_queue_depth"); v != 3 {
		t.Fatalf("queue depth = %d", v)
	}
}
