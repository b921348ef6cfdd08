package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mem"
	engine "repro/internal/run"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// runParams describes one simulation run: the experiment's spec plus
// emsim's side channels. Both machines (the 1-core baseline and the
// N-core migration configuration) are driven in a single pass over the
// input, so a checkpoint captures them at the same event and a resumed
// run replays the identical stream to both.
type runParams struct {
	engine.Spec

	// Workers sets the worker pool for the two machine passes: 0 = all
	// cores, 1 = the legacy serial tee pass. Checkpointing, resuming and
	// a single usable CPU force the serial path regardless (a checkpoint
	// must capture both machines at the same event).
	Workers int

	Checkpoint      string // checkpoint file path ("" = no checkpointing)
	CheckpointEvery uint64 // events between periodic checkpoints (0 = only on interrupt)
	Resume          string // resume from this checkpoint file

	// TimelineInterval, when positive, samples every machine metric at
	// each multiple of this event count; the samples come back as
	// runResult.Timeline. Both the serial tee pass and the independent
	// parallel passes number events identically, so the rows are
	// byte-identical for every worker count.
	TimelineInterval uint64
	// live, when non-nil, receives metric snapshots at every timeline
	// boundary (the -metrics endpoint).
	live *telhttp.Live

	// stop, when it becomes true mid-run, aborts the pass at the next
	// event boundary (the SIGINT path). A final checkpoint is written if
	// Checkpoint is set.
	stop *atomic.Bool
	// stopAfter aborts after exactly this many events — the test hook
	// that simulates an interrupt at a deterministic point. 0 = never.
	stopAfter uint64
}

// validate rejects a spec the simulator cannot run before any machine
// is built. emsim's flags carry every default and take explicit zeros
// literally (-sample-warmup 0 is no warm-up), so only the scenario
// spelling is normalized. The Michaud default and the uniform chip
// become "", which makes spelling out a default indistinguishable from
// omitting it (same report, same JSON bytes, same checkpoint bytes).
func (p *runParams) validate() error {
	if err := p.Spec.Validate(); err != nil {
		return fmt.Errorf("emsim: %w", err)
	}
	n := p.Spec.Normalize()
	p.Policy, p.Topology = n.Policy, n.Topology
	return nil
}

// runResult is what one pass produces.
type runResult struct {
	Normal, Mig machine.Stats
	Events      uint64
	Interrupted bool
	Resumed     uint64 // events skipped during resume fast-forward (0 = fresh run)

	// Timeline holds the interval samples of both machines, merged into
	// the deterministic output order (present only with
	// runParams.TimelineInterval set). TimelineDropped counts the oldest
	// rows the hard ring cap evicted before the surviving ones.
	Timeline        []telemetry.Row
	TimelineDropped uint64
}

// run executes one simulation pass (or resumes one) and returns the
// final stats of both machines. When resuming, p's run-shaping fields
// are overwritten from the checkpoint, so the caller's report sees the
// effective parameters.
func run(p *runParams) (*runResult, error) {
	var resumeCk *machine.Checkpoint
	if p.Resume != "" {
		ck, err := machine.LoadCheckpoint(p.Resume)
		if err != nil {
			return nil, err
		}
		// The checkpoint is authoritative about the run it belongs to:
		// flags that shaped the original pass are restored from it.
		p.Spec = engine.SpecOf(ck)
		resumeCk = ck
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.independent(resumeCk != nil, runtime.GOMAXPROCS(0)) {
		normal, mig, err := p.NewMachines()
		if err != nil {
			return nil, err
		}
		tel, err := newRunTelemetry(p, normal, mig)
		if err != nil {
			return nil, err
		}
		return runIndependent(p, normal, mig, tel)
	}
	pair, err := p.NewPair()
	if err != nil {
		return nil, err
	}
	tel, err := newRunTelemetry(p, pair.Normal, pair.Mig)
	if err != nil {
		return nil, err
	}

	s := &engine.Stream{To: pair.Sinks(), StopAt: p.stopAfter, Stop: p.stop}
	if resumeCk != nil {
		if err := pair.Restore(resumeCk); err != nil {
			return nil, fmt.Errorf("emsim: resuming %s: %w", p.Resume, err)
		}
		s.Skip = resumeCk.Events
	}
	save := func(events uint64) error {
		ck, err := pair.Checkpoint(p.Spec, events)
		if err != nil {
			return err
		}
		return machine.SaveCheckpoint(p.Checkpoint, ck)
	}
	every := uint64(0)
	if p.Checkpoint != "" {
		every = p.CheckpointEvery
	}
	if tel != nil {
		s.Every = append(s.Every, tel.interval)
	}
	if every > 0 {
		s.Every = append(s.Every, every)
	}
	s.Hook = func(events uint64) error {
		if tel != nil {
			tel.tickBoth(events)
		}
		if every > 0 && events%every == 0 {
			if err := save(events); err != nil {
				return fmt.Errorf("emsim: checkpointing failed: %w", err)
			}
		}
		return nil
	}
	// The input is produced on a goroutine of its own, up to
	// engine.StageDepth batches ahead; the pair, its hooks and the stop
	// stay on this one, and see the batches an unstaged pass would.
	interrupted, err := s.Run(mem.Staged(engine.StageDepth, p.Feed))
	if err != nil {
		return nil, err
	}
	if interrupted && p.Checkpoint != "" {
		if err := save(s.Position()); err != nil {
			return nil, fmt.Errorf("emsim: final checkpoint failed: %w", err)
		}
	}
	return &runResult{
		Normal:      pair.Normal.FinalStats(),
		Mig:         pair.Mig.FinalStats(),
		Events:      s.Events(),
		Interrupted: interrupted,
		Resumed:     s.Skip,
		Timeline:    tel.finish(),

		TimelineDropped: tel.droppedRows(),
	}, nil
}

// independent reports whether run drives the two machines as separate
// passes (runIndependent) rather than one teed pass. With no checkpoint
// state in play the machines never need to agree on an event boundary,
// so they can consume independent copies of the (deterministic) input
// stream concurrently, on two goroutines whose machines cannot share
// the pair's L1 front end. That buys wall time only when procs, the
// CPUs the process may run on at once, number at least two; on one CPU
// it generates the stream twice for nothing.
func (p *runParams) independent(resuming bool, procs int) bool {
	return p.Workers != 1 && p.Checkpoint == "" && !resuming && procs >= 2
}

// runIndependent drives the two machines as separate passes over the
// input through the worker pool. Each pass regenerates the workload (or
// reopens the trace) itself, so it observes the exact event stream the
// serial tee would have delivered and the stats are bit-identical to
// the serial path. The -stop-after test hook counts events per pass and
// so also stops deterministically; only an asynchronous SIGINT may
// catch the two passes at different events, in which case the partial
// report covers whatever each machine had consumed.
func runIndependent(p *runParams, normal, mig *machine.Machine, tel *runTelemetry) (*runResult, error) {
	streams := [2]*engine.Stream{
		{To: []mem.BatchSink{normal}, StopAt: p.stopAfter, Stop: p.stop},
		{To: []mem.BatchSink{mig}, StopAt: p.stopAfter, Stop: p.stop},
	}
	if tel != nil {
		for i, s := range streams {
			s.Every = []uint64{tel.interval}
			s.Hook = func(events uint64) error { tel.tick(i, events); return nil }
		}
	}
	var interrupted [2]bool
	pass := func(i int) func(context.Context) error {
		return func(context.Context) (err error) {
			interrupted[i], err = streams[i].Run(p.Feed)
			return err
		}
	}
	if err := runner.Run(context.Background(), runner.Config{Workers: p.Workers}, pass(0), pass(1)); err != nil {
		return nil, err
	}
	return &runResult{
		Normal:      normal.FinalStats(),
		Mig:         mig.FinalStats(),
		Events:      max(streams[0].Events(), streams[1].Events()),
		Interrupted: interrupted[0] || interrupted[1],
		Timeline:    tel.finish(),

		TimelineDropped: tel.droppedRows(),
	}, nil
}
