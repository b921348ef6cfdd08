package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// Config shapes one Service.
type Config struct {
	// Workers bounds how many simulation jobs run at once (0 =
	// runtime.NumCPU). Each job runs its passes serially; service-level
	// parallelism comes from concurrent requests, which keeps every
	// individual result on the byte-identical serial path.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot (0 = 16). Beyond it, Run/Sweep fail with ErrQueueFull
	// and the HTTP layer answers 429 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (0 = 256;
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry its own (0 = no deadline).
	DefaultTimeout time.Duration
	// SpoolDir, when set, receives EMCKPT2 checkpoint files for /run
	// jobs cancelled by drain, so interrupted work is resumable with
	// `emsim -resume` instead of discarded. At startup, Recover re-adopts
	// spooled checkpoints and runs them to completion. When SpoolDir is
	// set the service is not ready (readiness probe "recovery") until
	// Recover has been called and has finished.
	SpoolDir string
	// Store, when non-nil, is the durable write-through layer behind the
	// in-memory cache: every computed result is persisted to it, and a
	// memory-cache miss consults it before scheduling a simulation — so
	// results survive a restart (and answer with a cache hit) even though
	// the in-memory cache starts cold.
	Store *store.Store
	// Live, when non-nil, receives the service metrics snapshot (cache
	// hits/misses, queue depth, in-flight jobs) after every state
	// change, for the /metrics endpoint.
	Live *telhttp.Live
}

// Metrics is the service's observability surface. All fields are safe
// for concurrent use; see Snapshot for the published encoding.
type Metrics struct {
	Admitted    telemetry.AtomicCounter // requests that reached a worker slot
	Rejected    telemetry.AtomicCounter // 429s: admission queue full
	Completed   telemetry.AtomicCounter // jobs that produced a result
	Cancelled   telemetry.AtomicCounter // jobs cut short by deadline or drain
	CacheHits   telemetry.AtomicCounter
	CacheMisses telemetry.AtomicCounter
	QueueDepth  telemetry.AtomicGauge // admitted requests waiting for a slot
	InFlight    telemetry.AtomicGauge // jobs holding a slot right now

	StoreHits     telemetry.AtomicCounter // results served from the durable store
	StoreErrors   telemetry.AtomicCounter // store reads/writes that failed (result still served)
	RecoveredJobs telemetry.AtomicCounter // spooled checkpoints resumed to completion
	Quarantined   telemetry.AtomicCounter // corrupt store entries + spool checkpoints set aside
}

// Snapshot renders the metrics in a fixed registration-like order, the
// deterministic shape telhttp.Live serves.
func (m *Metrics) Snapshot() telemetry.Snapshot {
	return telemetry.Snapshot{Counters: []telemetry.CounterValue{
		telemetry.CounterValueOf("service_admitted", &m.Admitted),
		telemetry.CounterValueOf("service_rejected", &m.Rejected),
		telemetry.CounterValueOf("service_completed", &m.Completed),
		telemetry.CounterValueOf("service_cancelled", &m.Cancelled),
		telemetry.CounterValueOf("service_cache_hits", &m.CacheHits),
		telemetry.CounterValueOf("service_cache_misses", &m.CacheMisses),
		telemetry.GaugeValueOf("service_queue_depth", &m.QueueDepth),
		telemetry.GaugeValueOf("service_inflight", &m.InFlight),
		telemetry.CounterValueOf("store_hits", &m.StoreHits),
		telemetry.CounterValueOf("store_errors", &m.StoreErrors),
		telemetry.CounterValueOf("store_recovered_jobs", &m.RecoveredJobs),
		telemetry.CounterValueOf("store_quarantined", &m.Quarantined),
	}}
}

// Sentinel errors the HTTP layer translates into status codes.
var (
	// ErrQueueFull: the admission queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining: the service no longer admits work (HTTP 503).
	ErrDraining = errors.New("service: draining, not admitting requests")
)

// BadRequestError marks a malformed or unrunnable request (HTTP 400).
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return "service: bad request: " + e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// DrainedError reports a /run job cut short by drain. When the service
// has a spool directory the partial work was checkpointed and
// Checkpoint names a file `emsim -resume` accepts.
type DrainedError struct{ Checkpoint string }

func (e *DrainedError) Error() string {
	if e.Checkpoint == "" {
		return "service: job cancelled by drain"
	}
	return "service: job cancelled by drain; checkpointed to " + e.Checkpoint
}

// Service schedules simulation requests on a bounded worker pool with a
// content-addressed result cache in front. Create with New; a Service
// must not be copied.
type Service struct {
	cfg      Config
	queueCap int64
	slots    chan struct{}
	cache    *resultCache
	metrics  Metrics

	mu sync.Mutex
	//emlint:guardedby mu
	draining bool
	jobs     sync.WaitGroup // one unit per admitted request, Add under mu

	// jobsCtx is cancelled when drain gives up waiting: in-flight jobs
	// observe it at event granularity, checkpoint, and exit.
	jobsCtx    context.Context
	cancelJobs context.CancelFunc

	// recoveryDone flips once spool recovery has finished (immediately,
	// when there is no spool directory). Until then the readiness probe
	// reports unavailable, so a load balancer keeps traffic away while
	// the service is still replaying interrupted work.
	recoveryDone atomic.Bool

	livez, readyz *health.Checker
}

// New builds a Service from cfg, applying defaults.
func New(cfg Config) *Service {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 16
	}
	if depth < 0 {
		depth = 0 // no waiting: admit only onto a free slot
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = 256
	}
	jobsCtx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		queueCap:   int64(depth),
		slots:      make(chan struct{}, workers),
		cache:      newResultCache(entries),
		jobsCtx:    jobsCtx,
		cancelJobs: cancel,
	}
	if cfg.SpoolDir == "" {
		s.recoveryDone.Store(true)
	}
	if cfg.Store != nil {
		// Entries the startup scan quarantined are part of this service's
		// durability story even though the scan ran before New.
		s.metrics.Quarantined.Add(uint64(cfg.Store.Scan().Quarantined))
	}

	// Liveness is "the process can still answer": a failing probe here
	// means restart-worthy, so only wiring-level checks belong.
	s.livez = health.NewChecker()
	s.livez.Register("serving", func() error { return nil })

	// Readiness is "send this instance traffic": drain, unfinished spool
	// recovery, and an unwritable store directory are all route-away
	// conditions that resolve without a restart.
	s.readyz = health.NewChecker()
	s.readyz.Register("admitting", func() error {
		if s.Draining() {
			return fmt.Errorf("draining")
		}
		return nil
	})
	s.readyz.Register("worker_pool", func() error {
		if s.metrics.QueueDepth.Value() >= s.queueCap && s.queueCap > 0 {
			return fmt.Errorf("admission queue full (%d waiting)", s.queueCap)
		}
		return nil
	})
	s.readyz.Register("recovery", func() error {
		if !s.recoveryDone.Load() {
			return fmt.Errorf("spool recovery in progress")
		}
		return nil
	})
	if cfg.Store != nil {
		s.readyz.Register("store", func() error { return cfg.Store.CheckWritable() })
	}

	// Publish the zero snapshot so /metrics shows the full counter shape
	// from boot, not only after the first request.
	s.publish()
	return s
}

// Metrics exposes the service counters (for tests and the daemon).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// publish pushes the current metric values to the live endpoint.
func (s *Service) publish() {
	if s.cfg.Live != nil {
		s.cfg.Live.Publish("service", s.metrics.Snapshot())
	}
}

// admit reserves a worker slot, waiting in the bounded queue. On
// success it returns a release function the caller must invoke when the
// job ends. ctx cancellation while queued abandons the wait.
func (s *Service) admit(ctx context.Context) (release func(), err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Registered under the lock so Drain's Wait never races a new job.
	s.jobs.Add(1)
	s.mu.Unlock()

	select {
	case s.slots <- struct{}{}:
		// Fast path: a slot is free, no queueing needed.
	default:
		// All slots busy: wait in the bounded queue.
		if n := s.metrics.QueueDepth.Add(1); n > s.queueCap {
			s.metrics.QueueDepth.Add(-1)
			s.metrics.Rejected.Inc()
			s.jobs.Done()
			s.publish()
			return nil, ErrQueueFull
		}
		s.publish()
		select {
		case s.slots <- struct{}{}:
			s.metrics.QueueDepth.Add(-1)
		case <-ctx.Done():
			s.metrics.QueueDepth.Add(-1)
			s.metrics.Cancelled.Inc()
			s.jobs.Done()
			s.publish()
			return nil, ctx.Err()
		case <-s.jobsCtx.Done():
			s.metrics.QueueDepth.Add(-1)
			s.jobs.Done()
			s.publish()
			return nil, ErrDraining
		}
	}
	s.metrics.Admitted.Inc()
	s.metrics.InFlight.Add(1)
	s.publish()
	return func() {
		<-s.slots
		s.metrics.InFlight.Add(-1)
		s.jobs.Done()
		s.publish()
	}, nil
}

// jobContext derives the context a job runs under: the request context
// (deadline included) additionally cancelled when drain cuts jobs off.
func (s *Service) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	merged, cancel := context.WithCancel(ctx)
	detach := context.AfterFunc(s.jobsCtx, cancel)
	return merged, func() { detach(); cancel() }
}

// Run serves one run request: from the cache when the content address
// is known, otherwise by scheduling a fresh simulation. cached reports
// which path produced the bytes.
func (s *Service) Run(ctx context.Context, spec RunSpec) (body []byte, cached bool, err error) {
	if s.Draining() {
		return nil, false, ErrDraining
	}
	if spec.Replay != "" {
		// The key does not cover a trace's bytes, so replays are not
		// served; the wire form cannot carry one anyway.
		return nil, false, &BadRequestError{fmt.Errorf("trace replay is not served")}
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, false, &BadRequestError{err}
	}
	return s.serve(ctx, spec.Key(), func() ([]byte, error) { return s.runJob(ctx, spec, nil) })
}

// Sweep serves one working-set sweep request, analogously to Run.
func (s *Service) Sweep(ctx context.Context, spec SweepSpec) (body []byte, cached bool, err error) {
	if s.Draining() {
		return nil, false, ErrDraining
	}
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return nil, false, &BadRequestError{err}
	}
	return s.serve(ctx, spec.Key(), func() ([]byte, error) { return s.sweepJob(ctx, spec) })
}

// serve is the one path from a validated request's key to its bytes:
// the result layers when they know key, otherwise job run under a
// worker slot and its result remembered. cached reports which path
// produced the bytes.
func (s *Service) serve(ctx context.Context, key string, job func() ([]byte, error)) (body []byte, cached bool, err error) {
	if b, ok := s.lookup(key); ok {
		return b, true, nil
	}
	s.metrics.CacheMisses.Inc()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, false, err
	}
	defer release()
	b, err := job()
	if err != nil {
		s.metrics.Cancelled.Inc()
		return nil, false, err
	}
	s.metrics.Completed.Inc()
	s.remember(key, b)
	return b, false, nil
}

// lookup consults the result layers in speed order: the in-memory
// cache, then the durable store. A store hit re-populates the memory
// cache, so a restarted service answers the second request for a key
// without touching the disk again.
func (s *Service) lookup(key string) ([]byte, bool) {
	if b, ok := s.cache.get(key); ok {
		s.metrics.CacheHits.Inc()
		s.publish()
		return b, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	b, err := s.cfg.Store.Get(key)
	switch {
	case err == nil:
		s.metrics.CacheHits.Inc()
		s.metrics.StoreHits.Inc()
		s.cache.put(key, b)
		s.publish()
		return b, true
	case errors.Is(err, store.ErrNotFound):
		return nil, false
	default:
		// A corrupt entry was quarantined inside Get; either way the
		// request falls through to a fresh computation — a store problem
		// costs time, never a wrong byte.
		var corrupt *store.CorruptEntryError
		if errors.As(err, &corrupt) {
			s.metrics.Quarantined.Inc()
		} else {
			s.metrics.StoreErrors.Inc()
		}
		s.publish()
		return nil, false
	}
}

// remember records a freshly computed result in both layers. A store
// write failure is counted but not surfaced: the result in hand is
// correct and the client gets it; only its durability is degraded.
func (s *Service) remember(key string, b []byte) {
	s.cache.put(key, b)
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Put(key, b); err != nil {
		s.metrics.StoreErrors.Inc()
		s.publish()
	}
}

// Draining reports whether drain has begun (the /healthz signal).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for in-flight jobs to finish. Jobs
// still running when ctx expires are cancelled; /run jobs then
// checkpoint to SpoolDir (when configured) before exiting, and Drain
// returns once every job has. cancelled reports whether the deadline
// forced cancellation. Drain is idempotent.
func (s *Service) Drain(ctx context.Context) (cancelled bool) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	//emlint:detached bounded by the jobs WaitGroup: every admitted job calls Done, cancelJobs forces the stragglers
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return false
	case <-ctx.Done():
		s.cancelJobs()
		<-done
		return true
	}
}

// ctxError classifies why a job's context ended: a DrainedError when
// the service-wide drain fired, the context's own error (deadline or
// client cancellation) otherwise.
func (s *Service) ctxError(ctx context.Context, checkpoint string) error {
	if s.jobsCtx.Err() != nil {
		return &DrainedError{Checkpoint: checkpoint}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: job cancelled: %w", err)
	}
	return &DrainedError{Checkpoint: checkpoint}
}
