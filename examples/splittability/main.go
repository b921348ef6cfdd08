// Splittability analysis: measure whether an access pattern benefits
// from execution migration before committing to the full machine model.
//
// The paper defines "splittability" (§3.4) as the existence of a
// balanced partition with a low transition frequency, and demonstrates
// it by comparing the LRU-stack profile of the raw stream (p1) with the
// profile after 4-way affinity splitting (p4) — Figures 4 and 5. This
// example runs that comparison on three synthetic patterns (circular,
// half-random, uniform random) and prints the verdicts.
//
// Run: go run ./examples/splittability
package main

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/trace"
)

// analyze pushes n references from g through the Figure 4/5 pipeline:
// one unbounded stack for p1, a 4-way splitter + 4 stacks for p4.
func analyze(name string, g trace.Generator, n uint64, thresholds []int64) {
	single := lrustack.New(thresholds, 0)
	split := affinity.NewSplitter(affinity.Fig45Config(), affinity.NewUnbounded())
	multi := lrustack.NewMultiStack(4, thresholds, 0)

	for i := uint64(0); i < n; i++ {
		line := mem.Line(g.Next())
		single.Ref(line)
		multi.Ref(split.Ref(line, true), line)
	}
	p1, p4 := single.Profile(), multi.Profile()

	fmt.Printf("%-12s transitions: 1 per %.0f refs\n", name,
		float64(split.Refs())/float64(split.Transitions()+1))
	fmt.Printf("%-12s %8s  %8s  %8s\n", "", "size", "p1", "p4")
	var maxGap float64
	for i, th := range thresholds {
		a, b := p1.Frac(i), p4.Frac(i)
		if a-b > maxGap {
			maxGap = a - b
		}
		fmt.Printf("%-12s %7dK  %8.3f  %8.3f\n", "", th*64/1024, a, b)
	}
	verdict := "NOT splittable"
	if maxGap > 0.05 {
		verdict = "SPLITTABLE"
	}
	fmt.Printf("%-12s max gap %.3f → %s\n\n", "", maxGap, verdict)
}

func main() {
	// Thresholds: 64KB..1MB in lines (the interesting range for a
	// 4-core machine with 512KB L2s — x, not 4x).
	thresholds := []int64{1024, 2048, 4096, 8192, 16384}
	const refs = 3_000_000

	// 24k lines = 1.5MB: exceeds one 512KB L2, fits the 2MB aggregate.
	analyze("circular", trace.NewCircular(24<<10), refs, thresholds)
	analyze("halfrandom", trace.Must(trace.NewHalfRandom(24<<10, 1000, 7)), refs, thresholds)
	analyze("random", trace.Must(trace.NewUniform(24<<10, 7)), refs, thresholds)

	fmt.Println("Interpretation: with 4 caches of size x, the split stream behaves")
	fmt.Println("like the p4 column — circular and phase-structured working sets")
	fmt.Println("fit where the unsplit stream (p1) thrashes; random ones do not.")
}
