package service

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/run"
)

// Plain /run jobs are thin calls into the run engine (internal/run),
// the same engine `emsim` runs on: one machine pair, one event stream
// with one numbering, one checkpoint format. That shared engine is what
// the byte-identity e2e contract rests on — a /run response equals
// `emsim -json` for the same parameters, whether it was computed here,
// resumed from a spooled checkpoint, or served from the cache.

// runJob executes one cold /run request on the calling goroutine (the
// caller already holds a worker slot). ck, when non-nil, is a spooled
// checkpoint to resume from: both machines are restored and the
// deterministic workload replays with the checkpointed prefix skipped.
// A cancelled job discards its partial stats; when drain caused the
// cancellation and a spool directory is configured, the machines are
// checkpointed first (never behind the restored event) and the
// DrainedError names the file, which `emsim -resume` and the next
// Recover both accept.
func (s *Service) runJob(ctx context.Context, spec RunSpec, ck *machine.Checkpoint) ([]byte, error) {
	if len(spec.Programs) > 0 || spec.Sample {
		return s.reportJob(ctx, spec)
	}
	pair, err := spec.NewPair()
	if err != nil {
		return nil, err
	}
	stream := &run.Stream{To: pair.Sink()}
	if ck != nil {
		if err := pair.Restore(ck); err != nil {
			return nil, err
		}
		stream.Skip = ck.Events
	}

	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	interrupted, err := stream.RunContext(jobCtx, spec.Feed)
	if interrupted {
		path := ""
		if s.jobsCtx.Err() != nil && s.cfg.SpoolDir != "" {
			path, err = s.spool(spec, pair, stream.Position())
			if err != nil {
				return nil, fmt.Errorf("service: spooling drained job: %w", err)
			}
		}
		return nil, s.ctxError(ctx, path)
	}
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	err = report.WriteRunJSON(&buf, report.RunResultJSON{
		Workload:  spec.Workload,
		Instr:     spec.Instr,
		Cores:     spec.Cores,
		Policy:    spec.Policy,   // normalized: "" for the Michaud default
		Topology:  spec.Topology, // normalized: "" for the uniform chip
		Events:    stream.Events(),
		Normal:    pair.Normal.FinalStats(),
		Migration: pair.Mig.FinalStats(),
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reportJob executes one multiprogrammed or sampled /run request
// through the report driver `emsim -programs`/`emsim -sample` run, so
// the response bytes match `emsim -json` for the same parameters.
// Workers is 1 (the caller already holds a worker slot); both drivers
// give identical bytes at any worker count anyway. Neither carries
// checkpoint machinery to spool, so a cancelled job discards its work.
// Both stop within a batch or so of their deadline: a sampled run's
// profile pass and chains, and a multiprogrammed run's program feeds and
// solo baselines, each run on a stream the context stops.
func (s *Service) reportJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	opt := report.RunOptions{Workers: 1, Context: jobCtx}
	var buf bytes.Buffer
	var err error
	if spec.Sample {
		var res report.SampleResultJSON
		if res, err = report.SampleRun(spec, opt); err == nil {
			err = report.WriteSampleJSON(&buf, res)
		}
	} else {
		var res report.MultiRunResultJSON
		if res, err = report.MultiRun(spec, opt); err == nil {
			err = report.WriteMultiRunJSON(&buf, res)
		}
	}
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// spool checkpoints a drained run's machines into the spool directory,
// in the exact EMCKPT2 format `emsim -resume` consumes. The file is
// named by the request's content address, so repeated drains of the
// same request overwrite one spool entry instead of accumulating.
func (s *Service) spool(spec RunSpec, pair *run.Pair, events uint64) (string, error) {
	ck, err := pair.Checkpoint(spec, events)
	if err != nil {
		return "", err
	}
	path := filepath.Join(s.cfg.SpoolDir, spec.Key()[:16]+".ckpt")
	if err := machine.SaveCheckpoint(path, ck); err != nil {
		return "", err
	}
	return path, nil
}

// sweepJob executes one cold /sweep request. The sweep driver checks
// the context between points, so cancellation is observed at point
// granularity (points are short; /run carries the event-granularity
// machinery).
func (s *Service) sweepJob(ctx context.Context, spec SweepSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	points, err := report.SweepWorkingSetOpt(spec.Sizes, spec.Laps, spec.Cores,
		report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteSweepJSON(&buf, report.SweepResultJSON{
		Cores:  spec.Cores,
		Laps:   spec.Laps,
		Points: points,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
