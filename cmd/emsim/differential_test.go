package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	engine "repro/internal/run"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// The batch-length differential suite: emsim's default delivery —
// DefaultBatchLen-record batches from the workload's Batcher or the
// trace's BatchReader, split by the run engine at every boundary inside
// them — must be indistinguishable from a pass that hands the engine
// one record per call (its Access/Instr forwards), where no boundary
// ever falls inside a batch: final stats, event counts, timeline bytes,
// and checkpoint/resume behaviour at arbitrary mid-batch events.

// rowsBytes renders timeline rows exactly as -timeline writes them.
func rowsBytes(t *testing.T, rows []telemetry.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONLWithFooter(&buf, rows, 0); err != nil {
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

// perRecordRun is run's serial pass (fresh, or resumed from ck) with
// every event reaching the run engine through its one-record
// Access/Instr forwards: the oracle the batched delivery is compared
// against.
func perRecordRun(t *testing.T, p runParams, ck *machine.Checkpoint) *runResult {
	t.Helper()
	if ck != nil {
		p.Spec = engine.SpecOf(ck)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	pair, err := p.NewPair()
	if err != nil {
		t.Fatal(err)
	}
	tel, err := newRunTelemetry(&p, pair.Normal, pair.Mig)
	if err != nil {
		t.Fatal(err)
	}
	s := &engine.Stream{To: pair.Sink()}
	if ck != nil {
		if err := pair.Restore(ck); err != nil {
			t.Fatal(err)
		}
		s.Skip = ck.Events
	}
	if tel != nil {
		s.Every = []uint64{tel.interval}
		s.Hook = func(events uint64) error { tel.tick(events); return nil }
	}
	if _, err := s.Run(func(sink mem.BatchSink) error { return p.Feed(perRecord{sink}) }); err != nil {
		t.Fatal(err)
	}
	return &runResult{
		Normal:   pair.Normal.FinalStats(),
		Mig:      pair.Mig.FinalStats(),
		Events:   s.Events(),
		Resumed:  s.Skip,
		Timeline: tel.finish(),
	}
}

// perRecord unrolls every batch into one Access or Instr call per
// record.
type perRecord struct{ mem.BatchSink }

func (r perRecord) AccessBatch(b *mem.Batch) { mem.DeliverBatch(b, r.BatchSink) }

// sameRun fails the test unless got reproduces want's stats, event
// count and timeline bytes.
func sameRun(t *testing.T, got, want *runResult, gotRows []telemetry.Row) {
	t.Helper()
	if got.Events != want.Events {
		t.Fatalf("events diverge: got %d, want %d", got.Events, want.Events)
	}
	if got.Normal != want.Normal {
		t.Errorf("normal stats diverge:\ngot:  %+v\nwant: %+v", got.Normal, want.Normal)
	}
	if got.Mig != want.Mig {
		t.Errorf("migration stats diverge:\ngot:  %+v\nwant: %+v", got.Mig, want.Mig)
	}
	gb, wb := rowsBytes(t, gotRows), rowsBytes(t, want.Timeline)
	if len(wb) == 0 || !bytes.Equal(gb, wb) {
		t.Errorf("timeline bytes diverge:\ngot:\n%s\nwant:\n%s", gb, wb)
	}
}

// TestScalarBatchIdenticalRun: same workload (and same recorded trace),
// batched vs per-record delivery — stats, events and timeline rows must
// be byte-identical. The odd timeline interval guarantees sampling
// points that sit mid-batch, so the run engine's boundary splitting in
// Stream.AccessBatch is what is actually under test.
func TestScalarBatchIdenticalRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := recordTrace(t, dir, "em3d", 150_000)

	cases := map[string]runParams{
		"workload": {Spec: engine.Spec{Workload: "179.art", Instr: 300_000, Cores: 4}, TimelineInterval: 7_777},
		"replay":   {Spec: engine.Spec{Replay: tracePath, Workload: "em3d", Cores: 2}, TimelineInterval: 3_001},
		"em3d":     {Spec: engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 2}, TimelineInterval: 5_555},
	}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			bp := base
			batched, err := run(&bp)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, batched, perRecordRun(t, base, nil), batched.Timeline)
		})
	}
}

// TestScalarBatchCheckpointResume: checkpoints cut at arbitrary
// mid-batch events must resume to the uninterrupted run's stats and
// timeline bytes, whether the resumed pass is batched (scalarResume
// false) or per-record (scalarResume true) — which pins the event
// numbering to be the same thing at every batch length.
func TestScalarBatchCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	base := runParams{Spec: engine.Spec{Workload: "179.art", Instr: 300_000, Cores: 4}, TimelineInterval: 7_777}

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}

	// None of these is a multiple of the 4096-record batch length, and
	// one sits exactly one event past a batch boundary. The sampling
	// profiler's interval boundaries ride along: those are the events the
	// -sample simulator cuts at.
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

				var res2 *runResult
				if resumeScalar {
					ck, err := machine.LoadCheckpoint(ckpt)
					if err != nil {
						t.Fatal(err)
					}
					res2 = perRecordRun(t, runParams{TimelineInterval: base.TimelineInterval}, ck)
				} else {
					q := runParams{Resume: ckpt, TimelineInterval: base.TimelineInterval}
					if res2, err = run(&q); err != nil {
						t.Fatal(err)
					}
				}
				if res2.Resumed != cut {
					t.Fatalf("resumed at %d, want %d", res2.Resumed, cut)
				}
				sameRun(t, res2, ref, stitch(res.Timeline, res2.Timeline))
			})
		}
	}
}

// stitch joins an interrupted run's timeline rows with its resumed
// run's. Both machines sample at every boundary, so the interrupted
// part holds len(before)/2 rows per machine, and the resumed run — whose
// rows number from 0 — continues the interval count there.
func stitch(before, after []telemetry.Row) []telemetry.Row {
	rows := append([]telemetry.Row{}, before...)
	for _, r := range after {
		r.Interval += len(before) / 2
		rows = append(rows, r)
	}
	return rows
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
