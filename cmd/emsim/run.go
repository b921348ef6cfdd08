package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mem"
	engine "repro/internal/run"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// runParams describes one simulation run: the experiment's spec plus
// emsim's side channels. Both machines (the 1-core baseline and the
// N-core migration configuration) are driven in a single pass over the
// input, so they always sit at the same event: a checkpoint, a timeline
// row or a stop captures both there, and a resumed run replays the
// identical stream to both.
type runParams struct {
	engine.Spec

	// Workers sizes the -sample chain lanes and the -programs pool: 0 =
	// all cores, 1 = serial. A plain run is one pass whatever its value.
	Workers int

	Checkpoint      string // checkpoint file path ("" = no checkpointing)
	CheckpointEvery uint64 // events between periodic checkpoints (0 = only on interrupt)
	Resume          string // resume from this checkpoint file

	// TimelineInterval, when positive, samples every machine metric at
	// each multiple of this event count; the samples come back as
	// runResult.Timeline.
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
	if p.Workers < 0 {
		return fmt.Errorf("emsim: -j must be 0 (all cores) or a positive worker count, got %d", p.Workers)
	}
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
	pair, err := p.NewPair()
	if err != nil {
		return nil, err
	}
	tel, err := newRunTelemetry(p, pair.Normal, pair.Mig)
	if err != nil {
		return nil, err
	}

	s := &engine.Stream{To: pair.Sink(), StopAt: p.stopAfter, Stop: p.stop}
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
			tel.tick(events)
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
