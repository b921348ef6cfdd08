// Package service is the long-running simulation layer behind the
// emsimd daemon: a bounded admission queue in front of the worker pool,
// per-request deadlines delivered to the event loop as stop flags, a
// content-addressed result cache, and graceful drain that finishes or
// checkpoints in-flight jobs.
//
// The cache is sound because the simulator is deterministic: a result
// is fully determined by the workload, the machine configuration, and
// the event-stream format version, so a response computed once can be
// served for every later request with the same canonical identity —
// byte-identical to what a fresh serial run would print (the e2e suite
// pins this against the emsim CLI).
package service

import (
	"fmt"
	"strings"

	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/run"
)

// RunSpec is the canonical identity of one /run request. The key is
// computed from the normalized spec, never from the request bytes, so
// JSON field order and spelled-out defaults are invisible to it.
type RunSpec = run.Spec

// The sampling defaults under the names perfbench reads when it
// builds its requests.
const (
	DefaultSampleSeed   = run.DefaultSampleSeed
	DefaultSampleWarmup = run.DefaultSampleWarmup
)

// SweepSpec is the canonical identity of one /sweep request. Sizes are
// working-set sizes in cache lines; order matters (points come back in
// input order), so it is part of the key.
type SweepSpec struct {
	Sizes []uint64 `json:"sizes,omitempty"`
	Laps  uint64   `json:"laps,omitempty"`
	Cores int      `json:"cores,omitempty"`
}

// normalized returns the spec with defaults filled in.
func (s SweepSpec) normalized() SweepSpec {
	if len(s.Sizes) == 0 {
		s.Sizes = report.DefaultSweepSizes()
	}
	if s.Laps == 0 {
		s.Laps = report.DefaultSweepLaps
	}
	if s.Cores == 0 {
		s.Cores = run.DefaultCores
	}
	return s
}

// validate rejects specs the sweep driver cannot run (normalized input).
func (s SweepSpec) validate() error {
	if _, err := migration.ConfigForCores(s.Cores); err != nil {
		return err
	}
	for _, ws := range s.Sizes {
		if ws == 0 {
			return fmt.Errorf("sweep sizes must be positive")
		}
	}
	return nil
}

// Key returns the sweep's content address.
func (s SweepSpec) Key() string {
	n := s.normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "op=sweep\nlaps=%d\ncores=%d\nsizes=", n.Laps, n.Cores)
	for i, ws := range n.Sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", ws)
	}
	return run.HashKey(b.String())
}
