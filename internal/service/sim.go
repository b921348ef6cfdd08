package service

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/run"
	"repro/internal/runner"
	"repro/internal/workloads/suite"
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
	if len(spec.Programs) > 0 {
		return s.multiJob(ctx, spec)
	}
	if spec.Sample {
		return s.sampleJob(ctx, spec)
	}
	pair, err := run.NewPair(spec.Cores, spec.Policy, spec.Topology)
	if err != nil {
		return nil, err
	}
	stream := &run.Stream{To: pair.Sinks()}
	if ck != nil {
		if err := pair.Restore(ck); err != nil {
			return nil, err
		}
		stream.Skip = ck.Events
	}

	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	stop, releaseStop := runner.StopWhenDone(jobCtx)
	defer releaseStop()
	stream.Stop = stop

	in := run.Input{Workload: spec.Workload, Instr: spec.Instr}
	interrupted, err := stream.Run(in.Feed)
	if err != nil {
		return nil, err
	}
	if interrupted {
		path := ""
		if s.jobsCtx.Err() != nil && s.cfg.SpoolDir != "" {
			path, err = s.spool(spec, in, pair, stream.Position())
			if err != nil {
				return nil, fmt.Errorf("service: spooling drained job: %w", err)
			}
		}
		return nil, s.ctxError(ctx, path)
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

// multiJob executes one multiprogrammed /run request: K programs
// co-scheduled on a shared L2 complex, each compared against its solo
// baseline. The cluster pass is inherently serial and uninterruptible;
// cancellation is observed between phases and during the solo baseline
// jobs, which is acceptable because multiprogram requests carry no
// checkpoint machinery to spool.
func (s *Service) multiJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	res, err := report.MultiRun(suite.Registry(), report.MultiRunConfig{
		Workloads: spec.Programs,
		Instr:     spec.Instr,
		Cores:     spec.Cores,
		Policy:    spec.Policy,
		Topology:  spec.Topology,
	}, report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteMultiRunJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sampleJob executes one sampled /run request through the shared
// report.SampleRun driver — the same code path as `emsim -sample
// -json`, so the response bytes match the CLI's for the same
// parameters. Workers is 1 (the caller already holds a worker slot);
// chain order makes the estimate identical at any worker count anyway.
func (s *Service) sampleJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	res, err := report.SampleRun(suite.Registry(), report.SampleConfig{
		Workload: spec.Workload,
		Instr:    spec.Instr,
		Cores:    spec.Cores,
		Policy:   spec.Policy,
		Topology: spec.Topology,
		Interval: spec.SampleInterval,
		Clusters: spec.SampleClusters,
		Seed:     spec.SampleSeed,
		Warmup:   spec.SampleWarmup,
	}, report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteSampleJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// spool checkpoints a drained run's machines into the spool directory,
// in the exact EMCKPT1 format `emsim -resume` consumes. The file is
// named by the request's content address, so repeated drains of the
// same request overwrite one spool entry instead of accumulating.
func (s *Service) spool(spec RunSpec, in run.Input, pair *run.Pair, events uint64) (string, error) {
	ck, err := pair.Checkpoint(in, events)
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
