package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/machine"
	engine "repro/internal/run"
	"repro/internal/telemetry"
)

// timelineBytes renders a run's timeline rows to the JSONL the
// -timeline flag would write.
func timelineBytes(t *testing.T, res *runResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONLWithFooter(&buf, res.Timeline, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimelineBytesIgnoreCPUCount: the timeline JSONL is part of the
// golden contract, and the pass's input runs on a goroutine of its own,
// so the CPU count decides what overlaps. It may not decide a byte: a
// run on one CPU writes the default run's timeline.
func TestTimelineBytesIgnoreCPUCount(t *testing.T) {
	base := runParams{Spec: engine.Spec{Workload: "181.mcf", Instr: 300_000, Cores: 4}, TimelineInterval: 50_000}

	dp := base
	ref, err := run(&dp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Timeline) < 4 {
		t.Fatalf("only %d timeline rows; interval too coarse for the workload", len(ref.Timeline))
	}
	want := timelineBytes(t, ref)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op := base
	one, err := run(&op)
	if err != nil {
		t.Fatal(err)
	}
	if got := timelineBytes(t, one); !bytes.Equal(got, want) {
		t.Fatalf("timeline on one CPU diverged from the default:\ndefault:\n%s\none CPU:\n%s", want, got)
	}
}

// TestTimelineRowShape: rows alternate normal/migration per interval,
// carry monotonic event numbers, and their counters track the final
// stats (the last migration row's l2_misses can never exceed the run's
// total).
func TestTimelineRowShape(t *testing.T) {
	p := runParams{Spec: engine.Spec{Workload: "em3d", Instr: 200_000, Cores: 2}, TimelineInterval: 40_000}
	res, err := run(&p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 || len(res.Timeline)%2 != 0 {
		t.Fatalf("want paired rows, got %d", len(res.Timeline))
	}
	var lastMigL2 uint64
	for i, row := range res.Timeline {
		wantMachine := "normal"
		if i%2 == 1 {
			wantMachine = "migration"
		}
		if row.Machine != wantMachine {
			t.Fatalf("row %d machine %q, want %q", i, row.Machine, wantMachine)
		}
		if row.Interval != i/2 {
			t.Fatalf("row %d interval %d, want %d", i, row.Interval, i/2)
		}
		if want := uint64(row.Interval+1) * p.TimelineInterval; row.Events != want {
			t.Fatalf("row %d at event %d, want %d", i, row.Events, want)
		}
		if row.Machine == "migration" {
			if row.Counters[machine.MetricL2Misses] < lastMigL2 {
				t.Fatalf("row %d l2_misses went backwards", i)
			}
			lastMigL2 = row.Counters[machine.MetricL2Misses]
			if _, ok := row.Counters[machine.MetricCtrlRequests]; !ok {
				t.Fatalf("migration row %d lacks controller counters: %v", i, row.Counters)
			}
		}
	}
	if lastMigL2 > res.Mig.L2Misses {
		t.Fatalf("last sampled l2_misses %d exceeds final %d", lastMigL2, res.Mig.L2Misses)
	}
}

// TestTimelineSurvivesInterruptAndResume: an interrupted run keeps its
// samples up to the stop point; the resumed run samples only boundaries
// past the restored event count (restored metric values included), so
// the concatenation covers the full run without overlap. The
// "on-boundary" case cuts exactly at a sampling point: the interrupted
// run samples it, and the resumed run must not sample it again — the
// tick hook never fires at the resume edge.
func TestTimelineSurvivesInterruptAndResume(t *testing.T) {
	base := runParams{Spec: engine.Spec{Workload: "179.art", Instr: 300_000, Cores: 4}}

	// Probe the workload's event count so interval and cut can sit at
	// deterministic positions inside the run.
	probe := base
	pr, err := run(&probe)
	if err != nil {
		t.Fatal(err)
	}
	base.TimelineInterval = pr.Events / 6

	refp := base
	ref, err := run(&refp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Timeline) < 4 {
		t.Fatalf("reference run produced only %d rows", len(ref.Timeline))
	}

	for _, tc := range []struct {
		name string
		cut  uint64
	}{
		{"mid-interval", base.TimelineInterval*3 + base.TimelineInterval/2}, // between the 3rd and 4th boundary
		{"on-boundary", base.TimelineInterval * 3},                          // exactly the 3rd boundary
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "tl.ckpt")
			p := base
			p.Checkpoint = ckpt
			p.stopAfter = tc.cut
			res, err := run(&p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Interrupted {
				t.Fatal("stop-after did not trigger")
			}
			wantRows := int(tc.cut/base.TimelineInterval) * 2
			if len(res.Timeline) != wantRows {
				t.Fatalf("interrupted run kept %d rows, want %d", len(res.Timeline), wantRows)
			}

			q := runParams{Resume: ckpt, TimelineInterval: base.TimelineInterval}
			res2, err := run(&q)
			if err != nil {
				t.Fatal(err)
			}
			combined := append(append([]telemetry.Row{}, res.Timeline...), res2.Timeline...)
			if len(combined) != len(ref.Timeline) {
				t.Fatalf("interrupt+resume rows = %d, reference %d", len(combined), len(ref.Timeline))
			}
			// Event numbering and counter values must line up with the
			// uninterrupted reference at every sampled boundary.
			for i, row := range combined {
				refRow := ref.Timeline[i]
				if row.Events != refRow.Events || row.Machine != refRow.Machine {
					t.Fatalf("row %d is (%s, %d), reference (%s, %d)", i, row.Machine, row.Events, refRow.Machine, refRow.Events)
				}
				for name, v := range refRow.Counters {
					if row.Counters[name] != v {
						t.Fatalf("row %d %s/%s = %d, reference %d", i, row.Machine, name, row.Counters[name], v)
					}
				}
			}
		})
	}
}
