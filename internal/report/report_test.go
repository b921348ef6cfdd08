package report

import (
	"strings"
	"testing"

	"repro/internal/workloads/suite"
)

// TestFig3Circular reproduces the Figure 3 headline numbers: a balanced
// split by t=100k with a transition frequency near the optimal 1/2000.
func TestFig3Circular(t *testing.T) {
	res, err := Fig3("circular", DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d checkpoints", len(res))
	}
	final := res[len(res)-1]
	if final.T != 1_000_000 {
		t.Fatalf("final checkpoint t=%d", final.T)
	}
	if final.PositiveCount < 1400 || final.PositiveCount > 2600 {
		t.Fatalf("unbalanced: %d/4000 positive", final.PositiveCount)
	}
	// Paper: 1 transition per 2000 references at the optimal split.
	if final.TransFreq > 0.001 {
		t.Fatalf("transition frequency %.5f, want ≈0.0005", final.TransFreq)
	}
}

// TestFig3HalfRandom: the paper reports one transition per 300
// references for HalfRandom(300) — one per phase change.
func TestFig3HalfRandom(t *testing.T) {
	res, err := Fig3("halfrandom", DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	final := res[len(res)-1]
	if final.TransFreq < 0.002 || final.TransFreq > 0.006 {
		t.Fatalf("transition frequency %.5f, want ≈1/300", final.TransFreq)
	}
}

// TestFig3UnknownBehavior: error contract.
func TestFig3UnknownBehavior(t *testing.T) {
	if _, err := Fig3("zigzag", DefaultFig3Config()); err == nil {
		t.Fatal("no error for unknown behaviour")
	}
}

// TestRenderFig3 smoke-tests the ASCII panel.
func TestRenderFig3(t *testing.T) {
	res, err := Fig3("circular", Fig3Config{N: 400, Window: 20, M: 30, Checkpoints: []uint64{50_000}})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFig3(res[0], 60, 10)
	if !strings.Contains(out, "circular t=50k") || len(strings.Split(out, "\n")) < 10 {
		t.Fatalf("render:\n%s", out)
	}
}

// TestLRUProfileShapes runs the Figure 4/5 pipeline on one splittable
// and one non-splittable benchmark and checks the panel shapes that
// define the paper's conclusion.
func TestLRUProfileShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	reg := suite.Registry()

	art, err := reg.New("179.art")
	if err != nil {
		t.Fatal(err)
	}
	ra := LRUProfileCapped(art, 6_000_000, 6, 0)
	if gap, ok := ra.Splittable(); !ok {
		t.Fatalf("art must be splittable (gap %.3f)", gap)
	}
	// p1 and p4 must be monotone non-increasing.
	for i := 1; i < len(ra.P1); i++ {
		if ra.P1[i] > ra.P1[i-1]+1e-9 || ra.P4[i] > ra.P4[i-1]+1e-9 {
			t.Fatalf("profile not monotone at %d", i)
		}
	}

	gzip, err := reg.New("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	rg := LRUProfileCapped(gzip, 6_000_000, 6, 0)
	if gap, ok := rg.Splittable(); ok {
		t.Fatalf("gzip must not be splittable (gap %.3f)", gap)
	}
	// The paper: transition frequency always low; gzip's is 0.0026.
	if rg.TransFreq > 0.02 {
		t.Fatalf("gzip transition frequency %.4f too high", rg.TransFreq)
	}
	if out := RenderProfile(ra, 12); !strings.Contains(out, "179.art") {
		t.Fatal("render missing workload name")
	}
}

// TestLRUProfileCapped: the resource-bounded profiler must report its
// evictions and keep every threshold at or below the cap exact.
func TestLRUProfileCapped(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	reg := suite.Registry()
	art, err := reg.New("179.art")
	if err != nil {
		t.Fatal(err)
	}
	full := LRUProfileCapped(art, 2_000_000, 6, 0)
	art2, _ := reg.New("179.art")
	const cap = 4096 // lines: covers the 16KB..256KB thresholds
	capped := LRUProfileCapped(art2, 2_000_000, 6, cap)
	if capped.Dropped == 0 || capped.MaxLines != cap {
		t.Fatalf("cap not exercised: %+v", capped)
	}
	for i, th := range capped.Thresholds {
		if th > cap {
			continue
		}
		if capped.P1[i] != full.P1[i] || capped.P4[i] != full.P4[i] {
			t.Errorf("threshold %d: capped (%.6f, %.6f) != unbounded (%.6f, %.6f)",
				th, capped.P1[i], capped.P4[i], full.P1[i], full.P4[i])
		}
	}
	if out := RenderProfile(capped, 12); !strings.Contains(out, "entries dropped") {
		t.Fatal("render missing dropped accounting")
	}
}

// TestTable1Row checks the Table 1 measurement plumbing on a fast
// workload.
func TestTable1Row(t *testing.T) {
	reg := suite.Registry()
	w, err := reg.New("179.art")
	if err != nil {
		t.Fatal(err)
	}
	row := Table1(w, 1_000_000)
	if row.Instr < 1_000_000 {
		t.Fatalf("instr = %d", row.Instr)
	}
	if row.DL1Miss == 0 || row.DL1Miss > row.DataRefs {
		t.Fatalf("DL1 misses %d of %d refs", row.DL1Miss, row.DataRefs)
	}
	if row.IL1Miss > row.IFetches {
		t.Fatal("IL1 misses exceed fetches")
	}
	// art's code fits the IL1: essentially no I-misses (paper: 0.00M).
	if frac := float64(row.IL1Miss) / float64(row.IFetches+1); frac > 0.01 {
		t.Fatalf("art IL1 miss fraction %.4f, want ≈0", frac)
	}
	if s := FormatTable1([]Table1Row{row}); !strings.Contains(s, "179.art") {
		t.Fatal("format")
	}
}

// TestTable2RowArt checks the headline Table 2 behaviour on the paper's
// strongest case: art must show ratio well below 1 with controlled
// migrations, and the formatted table must carry the row.
func TestTable2RowArt(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	reg := suite.Registry()
	rows, err := Table2Batch(reg, []string{"179.art"}, 15_000_000, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Ratio >= 0.8 {
		t.Fatalf("art miss ratio %.3f, want well below 1", row.Ratio)
	}
	if !row.HasMigrations {
		t.Fatal("art run produced no migrations")
	}
	// Migrations must remain far rarer than the misses they remove.
	if row.InstrPerMig < 1000 {
		t.Fatalf("migrations too frequent: one per %.0f instructions", row.InstrPerMig)
	}
	if row.BreakEvenPmig <= 1 {
		t.Fatalf("break-even Pmig %.1f, want > 1", row.BreakEvenPmig)
	}
	out := FormatTable2([]Table2Row{row})
	if !strings.Contains(out, "179.art") || !strings.Contains(out, "ratio") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestSplittabilityClasses pins the paper's §4.1 classification on a
// fast subset: splittable (art, em3d) vs not (gzip, parser, bisort).
// The metric ignores thresholds below 64KB, where four small stacks act
// as one bigger stack for any stream (capacity, not splittability).
func TestSplittabilityClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	reg := suite.Registry()
	check := func(name string, want bool) {
		w, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res := LRUProfileCapped(w, 8_000_000, 6, 0)
		gap, got := res.Splittable()
		if got != want {
			t.Errorf("%s: splittable=%v (gap %.3f), paper says %v", name, got, gap, want)
		}
	}
	check("179.art", true)
	check("em3d", true)
	check("164.gzip", false)
	check("197.parser", false)
	check("bisort", false)
}

// TestSweepCrossoverStructure verifies the paper's central trade as a
// function of working-set size: ≈1 while the set fits one L2, a clear
// win between one L2 and the aggregate, trending back toward 1 beyond.
func TestSweepCrossoverStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	points, err := SweepWorkingSetOpt([]uint64{
		(256 << 10) >> 6, // fits one 512KB L2
		(1 << 20) >> 6,   // fits 2MB aggregate, not one L2
		(6 << 20) >> 6,   // beyond the aggregate
	}, 30, 4, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatal("points")
	}
	if points[0].Ratio < 0.8 || points[0].Ratio > 1.3 {
		t.Errorf("fits-one-L2 ratio %.3f, want ≈1", points[0].Ratio)
	}
	if points[1].Ratio > 0.5 {
		t.Errorf("fits-aggregate ratio %.3f, want a clear win", points[1].Ratio)
	}
	if points[2].Ratio < 0.8 {
		t.Errorf("beyond-aggregate ratio %.3f, want ≈1 (suppressed)", points[2].Ratio)
	}
	if points[1].BreakEvenPmig < 10 {
		t.Errorf("win-region break-even %.1f, want comfortably > 10", points[1].BreakEvenPmig)
	}
	if out := FormatSweep(points); len(out) == 0 {
		t.Fatal("format")
	}
}

// TestFig3Golden pins the end-to-end determinism of the Figure 3
// pipeline: the exact headline numbers of the default run. Any change
// to the affinity algorithm's arithmetic shows up here first.
func TestFig3Golden(t *testing.T) {
	res, err := Fig3("circular", DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	final := res[len(res)-1]
	if final.PositiveCount != 1999 {
		t.Errorf("golden drift: positive count %d, recorded 1999", final.PositiveCount)
	}
	if final.TransFreq < 0.00049 || final.TransFreq > 0.00051 {
		t.Errorf("golden drift: transition frequency %.5f, recorded 0.00050", final.TransFreq)
	}
	var min, max int64
	for _, a := range final.Affinities {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if min != -32768 || max != 29723 {
		t.Errorf("golden drift: affinity range [%d,%d], recorded [-32768,29723]", min, max)
	}
}
