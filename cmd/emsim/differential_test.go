package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// The scalar-vs-batch differential suite: the -scalar escape hatch and
// the default columnar path must be indistinguishable in every output —
// final stats, event counts, timeline bytes, and checkpoint/resume
// behaviour at arbitrary mid-batch events.

// rowsBytes renders timeline rows exactly as -timeline writes them.
func rowsBytes(t *testing.T, rows []telemetry.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordTrace records a workload's stream to an EMTRACE2 file.
func recordTrace(t *testing.T, dir, workload string, instr uint64) string {
	t.Helper()
	path := filepath.Join(dir, workload+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := suite.Registry().New(workload)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(tw, instr)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScalarBatchIdenticalRun: same workload (and same recorded trace),
// scalar vs batch delivery — stats, events and timeline rows must be
// byte-identical. The odd timeline interval guarantees sampling points
// that sit mid-batch, so the run engine's boundary splitting in
// Stream.AccessBatch is what is actually under test.
func TestScalarBatchIdenticalRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := recordTrace(t, dir, "em3d", 150_000)

	cases := map[string]runParams{
		"workload": {Workload: "179.art", Instr: 300_000, Cores: 4, Workers: 1, TimelineInterval: 7_777},
		"replay":   {Replay: tracePath, Workload: "em3d", Cores: 2, Workers: 1, TimelineInterval: 3_001},
		"parallel": {Workload: "em3d", Instr: 200_000, Cores: 2, Workers: 2, TimelineInterval: 5_555},
	}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			sp, bp := base, base
			sp.Scalar = true
			scalar, err := run(&sp)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := run(&bp)
			if err != nil {
				t.Fatal(err)
			}
			if scalar.Events != batched.Events {
				t.Fatalf("events diverge: scalar %d, batched %d", scalar.Events, batched.Events)
			}
			if scalar.Normal != batched.Normal {
				t.Errorf("normal stats diverge:\nscalar:  %+v\nbatched: %+v", scalar.Normal, batched.Normal)
			}
			if scalar.Mig != batched.Mig {
				t.Errorf("migration stats diverge:\nscalar:  %+v\nbatched: %+v", scalar.Mig, batched.Mig)
			}
			sb, bb := rowsBytes(t, scalar.Timeline), rowsBytes(t, batched.Timeline)
			if !bytes.Equal(sb, bb) {
				t.Errorf("timeline bytes diverge:\nscalar:\n%s\nbatched:\n%s", sb, bb)
			}
		})
	}
}

// TestScalarBatchCheckpointResume: checkpoints cut at arbitrary
// mid-batch events must resume to the reference result on either
// delivery path — including across paths (batch checkpoint resumed
// scalar, and vice versa), which pins the event numbering to be the
// same thing on both.
func TestScalarBatchCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Workload: "179.art", Instr: 300_000, Cores: 4}

	refp := base
	refp.Scalar = true
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}

	// None of these is a multiple of the 4096-record batch length, and
	// one sits exactly one event past a batch boundary. The sampling
	// profiler's interval boundaries ride along: those are the events the
	// -sample simulator cuts and warm-starts at, so checkpoint/resume
	// parity there is what makes sampled estimates trustworthy on either
	// delivery path.
	cuts := []uint64{1, 4097, 12_345, ref.Events - 3}
	cuts = append(cuts, samplingCuts(t, base, 3)...)
	for _, cut := range cuts {
		for _, resumeScalar := range []bool{false, true} {
			t.Run(fmt.Sprintf("cut=%d scalarResume=%v", cut, resumeScalar), func(t *testing.T) {
				ckpt := filepath.Join(dir, fmt.Sprintf("cut%d-%v.ckpt", cut, resumeScalar))
				p := base // batch path writes the checkpoint
				p.Checkpoint = ckpt
				p.stopAfter = cut
				res, err := run(&p)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Interrupted || res.Events != cut {
					t.Fatalf("interrupt at %d: %+v", cut, res)
				}

				q := runParams{Resume: ckpt, Scalar: resumeScalar}
				res2, err := run(&q)
				if err != nil {
					t.Fatal(err)
				}
				if res2.Resumed != cut || res2.Events != ref.Events {
					t.Fatalf("resume: %+v (want resumed=%d events=%d)", res2, cut, ref.Events)
				}
				if res2.Normal != ref.Normal || res2.Mig != ref.Mig {
					t.Errorf("stats diverge from scalar reference after cut %d", cut)
				}
			})
		}
	}
}

// samplingCuts profiles the same workload the differential run uses and
// returns up to n interval-start events — the exact points -sample
// fast-forwards to and snapshots at. They are derived, not hardcoded,
// so a change to event numbering or interval cutting shifts the cuts
// with it.
func samplingCuts(t *testing.T, base runParams, n int) []uint64 {
	t.Helper()
	w, err := suite.Registry().New(base.Workload)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sampling.NewProfiler(base.Instr/6, machine.NormalConfig().LineShift)
	if err != nil {
		t.Fatal(err)
	}
	ba := mem.NewBatcher(prof, 0)
	w.Run(ba, base.Instr)
	ba.Flush()
	intervals := prof.Finish()
	var cuts []uint64
	for _, iv := range intervals[1:] { // interval 0 starts at event 0: not a cut
		if len(cuts) == n {
			break
		}
		cuts = append(cuts, iv.StartEvent)
	}
	if len(cuts) == 0 {
		t.Fatal("profiler produced no interval boundaries to cut at")
	}
	return cuts
}
