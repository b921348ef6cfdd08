package report

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads/suite"
)

// goldenNames is a small cross-suite workload subset, kept cheap enough
// that the golden comparisons run both paths at full fidelity.
var goldenNames = []string{"179.art", "181.mcf", "bh"}

// TestGoldenSweepParallelMatchesSerial is the determinism guard for the
// sweep: the parallel pool's formatted output must be byte-identical to
// the serial path's, forever.
func TestGoldenSweepParallelMatchesSerial(t *testing.T) {
	sizes := []uint64{(256 << 10) >> 6, (1 << 20) >> 6, (2 << 20) >> 6}
	serial, err := SweepWorkingSetOpt(sizes, 10, 4, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepWorkingSetOpt(sizes, 10, 4, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep points diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if a, b := FormatSweep(serial), FormatSweep(parallel); a != b {
		t.Fatalf("formatted sweep diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestGoldenTable1ParallelMatchesSerial: Table1Batch at 4 workers ==
// serial Table1 loop, byte for byte.
func TestGoldenTable1ParallelMatchesSerial(t *testing.T) {
	reg := suite.Registry()
	const budget = 2_000_000
	var serialRows []Table1Row
	for _, n := range goldenNames {
		w, err := reg.New(n)
		if err != nil {
			t.Fatal(err)
		}
		serialRows = append(serialRows, Table1(w, budget))
	}
	parallelRows, err := Table1Batch(reg, goldenNames, budget, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("rows diverged:\nserial:   %+v\nparallel: %+v", serialRows, parallelRows)
	}
	if a, b := FormatTable1(serialRows), FormatTable1(parallelRows); a != b {
		t.Fatalf("formatted table diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestGoldenTable2ParallelMatchesSerial: Table2Batch (which splits each
// workload into a baseline job and a migration job) on four workers ==
// the same batch on one.
func TestGoldenTable2ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	reg := suite.Registry()
	const budget = 2_000_000
	names := goldenNames[:2]
	serialRows, err := Table2Batch(reg, names, budget, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := Table2Batch(reg, names, budget, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("rows diverged:\nserial:   %+v\nparallel: %+v", serialRows, parallelRows)
	}
	if a, b := FormatTable2(serialRows), FormatTable2(parallelRows); a != b {
		t.Fatalf("formatted table diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestGoldenFig3ParallelMatchesSerial: Fig3Batch == serial Fig3 calls,
// including the rendered panels.
func TestGoldenFig3ParallelMatchesSerial(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.Checkpoints = []uint64{20_000, 100_000}
	behaviors := []string{"circular", "halfrandom"}
	var serial [][]Fig3Result
	for _, b := range behaviors {
		res, err := Fig3(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, res)
	}
	parallel, err := Fig3Batch(behaviors, cfg, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Fig3 results diverged between serial and parallel")
	}
	for i := range serial {
		for j := range serial[i] {
			if a, b := RenderFig3(serial[i][j], 80, 12), RenderFig3(parallel[i][j], 80, 12); a != b {
				t.Fatalf("rendered panel %d/%d diverged", i, j)
			}
		}
	}
}

// TestGoldenLRUProfileParallelMatchesSerial: LRUProfileBatch == serial
// LRUProfileCapped calls, including the rendered panels.
func TestGoldenLRUProfileParallelMatchesSerial(t *testing.T) {
	reg := suite.Registry()
	const budget = 2_000_000
	var serial []ProfileResult
	for _, n := range goldenNames {
		w, err := reg.New(n)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, LRUProfileCapped(w, budget, mem.DefaultLineShift, 0))
	}
	parallel, err := LRUProfileBatch(reg, goldenNames, budget, mem.DefaultLineShift, 0, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("profiles diverged between serial and parallel")
	}
	for i := range serial {
		if a, b := RenderProfile(serial[i], 12), RenderProfile(parallel[i], 12); a != b {
			t.Fatalf("rendered panel %d diverged", i)
		}
	}
}

// TestBatchUnknownWorkload: a bad name fails the whole batch with a
// useful error instead of a partial result.
func TestBatchUnknownWorkload(t *testing.T) {
	reg := suite.Registry()
	_, err := Table1Batch(reg, []string{"179.art", "no-such-benchmark"}, 100_000, RunOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
	_, err = Table2Batch(reg, []string{"no-such-benchmark"}, 100_000, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("Table2Batch accepted unknown workload")
	}
}

// TestSweepBadCores: a user-supplied bad core count surfaces as an
// error from the Opt path (the legacy path panics as before).
func TestSweepBadCores(t *testing.T) {
	_, err := SweepWorkingSetOpt([]uint64{1024}, 2, 3, RunOptions{})
	if err == nil {
		t.Fatal("cores=3 accepted")
	}
}

// TestBatchProgressAndCancel: progress fires per job with its label,
// and a cancelled context aborts the batch.
func TestBatchProgressAndCancel(t *testing.T) {
	reg := suite.Registry()
	var mu sync.Mutex
	var labels []string
	_, err := Table1Batch(reg, goldenNames, 200_000, RunOptions{
		Workers: 2,
		Progress: func(l string) {
			mu.Lock()
			labels = append(labels, l)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(goldenNames) {
		t.Fatalf("progress fired %d times, want %d", len(labels), len(goldenNames))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Table1Batch(reg, goldenNames, 200_000, RunOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
