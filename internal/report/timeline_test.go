package report

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads/suite"
)

// TestGoldenTimelineParallelMatchesSerial: TimelineBatch rows, final
// snapshots and the fold-merged aggregate must be identical for every
// worker count — the per-job metric-merging determinism contract.
func TestGoldenTimelineParallelMatchesSerial(t *testing.T) {
	reg := suite.Registry()
	const budget, interval = 400_000, 50_000
	serial, err := TimelineBatch(reg, goldenNames, budget, interval, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		parallel, err := TimelineBatch(reg, goldenNames, budget, interval, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d batch diverged:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
		}
		if a, b := FormatTimeline(serial), FormatTimeline(parallel); a != b {
			t.Fatalf("workers=%d formatted timeline diverged:\n%s\nvs\n%s", workers, a, b)
		}
	}
}

// TestTimelineBatchShape: every workload gets paired rows on interval
// boundaries, final snapshots for both machines, and the aggregate sums
// each machine's contribution.
func TestTimelineBatchShape(t *testing.T) {
	reg := suite.Registry()
	const budget, interval = 400_000, 50_000
	batch, err := TimelineBatch(reg, []string{"181.mcf", "em3d"}, budget, interval, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Workloads) != 2 {
		t.Fatalf("want 2 workloads, got %d", len(batch.Workloads))
	}
	var wantRefs uint64
	for _, wl := range batch.Workloads {
		if len(wl.Rows) == 0 || len(wl.Rows)%2 != 0 {
			t.Fatalf("%s: want paired rows, got %d", wl.Name, len(wl.Rows))
		}
		for i, row := range wl.Rows {
			wantMachine := "normal"
			if i%2 == 1 {
				wantMachine = "migration"
			}
			if row.Machine != wantMachine || row.Events != uint64(i/2+1)*interval {
				t.Fatalf("%s row %d: %+v", wl.Name, i, row)
			}
		}
		nf, _ := wl.NormalFinal.Counter(machine.MetricRefs)
		mf, _ := wl.MigFinal.Counter(machine.MetricRefs)
		if nf == 0 || nf != mf {
			t.Fatalf("%s: final refs %d (normal) vs %d (migration)", wl.Name, nf, mf)
		}
		wantRefs += nf + mf
	}
	agg, _ := batch.Aggregate.Counter(machine.MetricRefs)
	if agg != wantRefs {
		t.Fatalf("aggregate refs = %d, want %d", agg, wantRefs)
	}
}

// TestTimelineBatchRejectsZeroInterval: interval validation happens at
// the batch boundary.
func TestTimelineBatchRejectsZeroInterval(t *testing.T) {
	if _, err := TimelineBatch(suite.Registry(), goldenNames, 1000, 0, RunOptions{}); err == nil {
		t.Fatal("interval 0 accepted")
	}
}
