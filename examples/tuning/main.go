// Tuning: the paper's parameter-sensitivity observations, reproduced as
// sweeps against the library API.
//
//  1. R-window size (§3.3): Circular splits only when N > 2|R|; the
//     settled transition frequency obeys the 1/(2|R|) low-pass bound.
//  2. Transition-filter width (§3.4): on a non-splittable (random)
//     stream, each extra filter bit halves the transition frequency.
//  3. Working-set sampling (§3.5): cutting the affinity cache via
//     sampling barely degrades split quality on a splittable stream.
//  4. Cache-line size (§4.1): "splittability is less pronounced with
//     larger lines" — merging nodes can only increase the minimum cut.
//
// Run: go run ./examples/tuning
package main

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/trace"
)

func transFreq2(g trace.Generator, windowSize int, filterBits uint, refs int) float64 {
	s := affinity.NewSplitter(affinity.SplitConfig{
		Ways:        2,
		Root:        affinity.MechConfig{WindowSize: windowSize, AffinityBits: 16, FilterBits: filterBits},
		SampleLimit: 31, // no sampling
	}, affinity.NewUnbounded())
	for i := 0; i < refs/2; i++ { // settle
		s.Ref(mem.Line(g.Next()), true)
	}
	start := s.Transitions()
	for i := 0; i < refs/2; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	return float64(s.Transitions()-start) / float64(refs/2)
}

func main() {
	fmt.Println("1) R-window size on Circular N=4000 (split needs N > 2|R|):")
	fmt.Printf("   %8s  %14s\n", "|R|", "trans/ref")
	for _, r := range []int{50, 100, 400, 1000, 2000, 2500} {
		f := transFreq2(trace.NewCircular(4000), r, 20, 1_000_000)
		note := ""
		if 4000 <= 2*r {
			note = "  (N <= 2|R|: not expected to split)"
		}
		fmt.Printf("   %8d  %14.6f%s\n", r, f, note)
	}

	fmt.Println("\n2) filter width on a uniform random stream (halving per bit):")
	fmt.Printf("   %8s  %14s\n", "bits", "trans/ref")
	for _, b := range []uint{17, 18, 19, 20, 21} {
		f := transFreq2(trace.Must(trace.NewUniform(4000, 3)), 100, b, 2_000_000)
		fmt.Printf("   %8d  %14.6f\n", b, f)
	}

	fmt.Println("\n3) working-set sampling on Circular 24k lines (4-way split quality):")
	fmt.Printf("   %8s  %10s  %12s\n", "sample", "p4(512KB)", "trans/ref")
	for _, limit := range []uint32{31, 8, 4} {
		cfg := affinity.Fig45Config()
		cfg.SampleLimit = limit
		split := affinity.NewSplitter(cfg, affinity.NewUnbounded())
		multi := lrustack.NewMultiStack(4, []int64{8192}, 0)
		g := trace.NewCircular(24 << 10)
		const refs = 2_000_000
		for i := 0; i < refs; i++ {
			line := mem.Line(g.Next())
			multi.Ref(split.Ref(line, true), line)
		}
		fmt.Printf("   %7.0f%%  %10.3f  %12.6f\n",
			float64(limit)/31*100, multi.Profile().Frac(0),
			float64(split.Transitions())/float64(split.Refs()))
	}

	fmt.Println("\n4) line size on a pointer working set (larger lines merge graph")
	fmt.Println("   nodes, shrinking the p1-p4 gap):")
	fmt.Printf("   %8s  %8s  %8s  %8s\n", "line", "p1", "p4", "gap")
	for _, shift := range []uint{6, 7, 8} { // 64B, 128B, 256B
		// Node stream: 24k nodes of 64 bytes in shuffled placement, so
		// bigger lines glue unrelated nodes together.
		rng := trace.NewRNG(11)
		perm := rng.Perm(24 << 10)
		th := []int64{(512 << 10) >> shift}
		single := lrustack.New(th, 0)
		split := affinity.NewSplitter(affinity.Fig45Config(), affinity.NewUnbounded())
		multi := lrustack.NewMultiStack(4, th, 0)
		const refs = 2_000_000
		pos := 0
		for i := 0; i < refs; i++ {
			addr := mem.Addr(perm[pos] * 64)
			line := mem.LineOf(addr, shift)
			single.Ref(line)
			multi.Ref(split.Ref(line, true), line)
			pos++
			if pos == len(perm) {
				pos = 0
			}
		}
		a, b := single.Profile().Frac(0), multi.Profile().Frac(0)
		fmt.Printf("   %7dB  %8.3f  %8.3f  %8.3f\n", 1<<shift, a, b, a-b)
	}
}
