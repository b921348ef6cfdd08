// Quickstart: split a working set in two with the affinity algorithm.
//
// This is the smallest useful program against the library's core API:
// feed a reference stream to a 2-way splitter and watch it discover the
// two halves of a Circular working set (the paper's Figure 3 scenario).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/mem"
	"repro/internal/trace"
)

func main() {
	const (
		workingSet = 4000 // cache lines
		window     = 100  // |R|
		refs       = 200_000
	)

	// A 2-way splitter: one mechanism (R-window + affinity table +
	// transition filter), dimensioned like the paper (16-bit affinity),
	// seeing every line (sampling limit 31 of 31).
	split := affinity.NewSplitter(affinity.SplitConfig{
		Ways:        2,
		Root:        affinity.MechConfig{WindowSize: window, AffinityBits: 16, FilterBits: 20},
		SampleLimit: 31,
	}, affinity.NewUnbounded())

	// Feed it the canonical splittable stream: 0,1,…,3999, 0,1,… .
	g := trace.NewCircular(workingSet)
	for i := 0; i < refs; i++ {
		split.Ref(mem.Line(g.Next()), true)
	}

	// The working set is now split by affinity sign. Count each half.
	var subset0 int
	for e := mem.Line(0); e < workingSet; e++ {
		if affinity.Sign(split.Mech(0).AffinityOf(e)) > 0 {
			subset0++
		}
	}
	fmt.Printf("after %d references:\n", refs)
	fmt.Printf("  subset 0: %d lines, subset 1: %d lines (want ≈%d each)\n",
		subset0, workingSet-subset0, workingSet/2)
	fmt.Printf("  transitions: %d (one per %.0f references; optimal is one per %d)\n",
		split.Transitions(), float64(refs)/float64(split.Transitions()), workingSet/2)

	// The transition filter keeps subsets sticky: with a cache per
	// subset, each subset's lines live in one cache and execution
	// migrates only at the working set's natural boundary.
}
