package affinity

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestSplitter8Circular: 8-way splitting of a circular working set must
// spread references across all 8 subsets with reasonable balance and low
// transition frequency.
func TestSplitter8Circular(t *testing.T) {
	const n = 16000
	g := trace.NewCircular(n)
	s := NewSplitter(eightWay(Fig45Config()), NewUnbounded())
	for i := 0; i < 3_000_000; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	var counts [8]uint64
	start := s.Transitions()
	const probe = 800_000
	for i := 0; i < probe; i++ {
		counts[s.Ref(mem.Line(g.Next()), true)]++
	}
	for sub, c := range counts {
		frac := float64(c) / probe
		if frac < 0.03 || frac > 0.35 {
			t.Fatalf("subset %d serves %.1f%% (counts %v)", sub, frac*100, counts)
		}
	}
	if freq := float64(s.Transitions()-start) / probe; freq > 0.02 {
		t.Fatalf("8-way transition frequency %.5f on Circular", freq)
	}
}

// TestSplitter8SubsetRange: subsets stay within [0,8) under arbitrary
// input, and the deferred-filter protocol works.
func TestSplitter8SubsetRange(t *testing.T) {
	s := NewSplitter(eightWay(Table2Config()), NewCache(2048, 4))
	rng := trace.NewRNG(17)
	for i := 0; i < 300_000; i++ {
		sub := s.Ref(mem.Line(rng.Uint64n(1<<30)), false)
		if sub < 0 || sub > 7 {
			t.Fatalf("subset %d out of range", sub)
		}
		if i%3 == 0 {
			if sub := s.CommitLastFilter(); sub < 0 || sub > 7 {
				t.Fatalf("committed subset %d out of range", sub)
			}
		}
	}
	if s.Ways() != 8 {
		t.Fatal("ways")
	}
	if s.Refs() != 300_000 {
		t.Fatalf("refs = %d", s.Refs())
	}
}

// TestSplitter8Sampling: with the 8-way Table2 configuration (limit 8),
// roughly 23/31 of references bypass the machinery.
func TestSplitter8Sampling(t *testing.T) {
	s := NewSplitter(eightWay(Table2Config()), NewUnbounded())
	g := trace.NewCircular(4000)
	const total = 400_000
	for i := 0; i < total; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	frac := float64(s.SampledOut()) / total
	want := 23.0 / 31.0
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("sampled-out fraction %.3f, want ≈%.3f", frac, want)
	}
}

// TestSplitter2Sampling: the 2-way sampler classifies sampled-out lines
// without touching the mechanism.
func TestSplitter2Sampling(t *testing.T) {
	s := NewSplitter(SplitConfig{Ways: 2, Root: MechConfig{WindowSize: 64, AffinityBits: 16, FilterBits: 18}, SampleLimit: 8}, NewUnbounded())
	g := trace.NewCircular(4000)
	const total = 400_000
	for i := 0; i < total; i++ {
		if sub := s.Ref(mem.Line(g.Next()), true); sub < 0 || sub > 1 {
			t.Fatalf("subset %d", sub)
		}
	}
	frac := float64(s.SampledOut()) / total
	if frac < 0.65 || frac > 0.85 {
		t.Fatalf("sampled-out fraction %.3f, want ≈0.74", frac)
	}
	if s.Mech(0).Refs >= total {
		t.Fatal("mechanism processed sampled-out references")
	}
}

// TestSplitter2DeferredCommit: Ref(e,false)+CommitLastFilter equals
// Ref(e,true) in filter effect.
func TestSplitter2DeferredCommit(t *testing.T) {
	mk := func() *Splitter {
		return twoWay(MechConfig{WindowSize: 32, AffinityBits: 16, FilterBits: 20}, NewUnbounded())
	}
	direct, deferred := mk(), mk()
	g1, g2 := trace.NewCircular(1000), trace.NewCircular(1000)
	for i := 0; i < 300_000; i++ {
		direct.Ref(mem.Line(g1.Next()), true)
		deferred.Ref(mem.Line(g2.Next()), false)
		deferred.CommitLastFilter()
	}
	if direct.Mech(0).Filter() != deferred.Mech(0).Filter() {
		t.Fatalf("filters diverge: direct %d, deferred %d", direct.Mech(0).Filter(), deferred.Mech(0).Filter())
	}
	if direct.Subset() != deferred.Subset() {
		t.Fatal("subsets diverge")
	}
}

// TestExactWindowSplitsCircular: the idealised distinct-entry window must
// split like the FIFO (the paper's §3.2 relaxation is behaviour-
// preserving).
func TestExactWindowSplitsCircular(t *testing.T) {
	for _, exact := range []bool{false, true} {
		m := NewMechanism(MechConfig{WindowSize: 100, AffinityBits: 16, FilterBits: 20, ExactWindow: exact}, NewUnbounded())
		g := trace.NewCircular(4000)
		for i := 0; i < 300_000; i++ {
			m.Ref(mem.Line(g.Next()), false)
		}
		pos := 0
		for e := mem.Line(0); e < 4000; e++ {
			if Sign(m.AffinityOf(e)) > 0 {
				pos++
			}
		}
		if pos < 1400 || pos > 2600 {
			t.Fatalf("exact=%v: unbalanced %d/4000", exact, pos)
		}
	}
}

// TestExactWindowDeduplicates: with ExactWindow, hammering one line must
// keep only a single entry's worth of influence (the mechanism's Refs
// advance but the window holds distinct lines).
func TestExactWindowDeduplicates(t *testing.T) {
	m := NewMechanism(MechConfig{WindowSize: 8, AffinityBits: 16, FilterBits: 20, ExactWindow: true}, NewUnbounded())
	// Fill with 8 distinct lines.
	for i := 0; i < 8; i++ {
		m.Ref(mem.Line(i), false)
	}
	// Hammer line 3: all other lines must stay in the window.
	for i := 0; i < 1000; i++ {
		m.Ref(mem.Line(3), false)
	}
	for i := 0; i < 8; i++ {
		if !slices.ContainsFunc(m.win, func(e winEntry) bool { return e.line == mem.Line(i) }) {
			t.Fatalf("line %d evicted by duplicates despite ExactWindow", i)
		}
	}
}
