package affinity

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestFilterSaturatedRandomInputs reproduces the §3.4 calculation
// directly: when the affinity inputs are saturated (±(2^15−1)) with
// probability 1/2 each — the paper's model of a working set with no
// splittability — a 20-bit transition filter yields a transition
// frequency ≈ 1/2^(1+20−16) ≈ 3%, and adding one filter bit roughly
// halves it ("If we double the saturation level ... we roughly divide by
// two the transition frequency").
func TestFilterSaturatedRandomInputs(t *testing.T) {
	freq := func(filterBits uint) float64 {
		m := NewMechanism(MechConfig{WindowSize: 4, AffinityBits: 16, FilterBits: filterBits}, NewUnbounded())
		rng := trace.NewRNG(99)
		const steps = 4_000_000
		prev := m.Side()
		var tr int
		for i := 0; i < steps; i++ {
			ae := int64(32767)
			if rng.Uint64()&1 == 1 {
				ae = -32767
			}
			m.UpdateFilter(ae)
			if s := m.Side(); s != prev {
				tr++
				prev = s
			}
		}
		return float64(tr) / steps
	}

	f20 := freq(20)
	if f20 < 0.02 || f20 > 0.045 {
		t.Fatalf("20-bit filter transition frequency = %.4f, want ≈0.031", f20)
	}
	f21 := freq(21)
	ratio := f20 / f21
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("one more filter bit should ≈halve transitions: f20=%.4f f21=%.4f ratio=%.2f", f20, f21, ratio)
	}
}

// twoWay builds a 2-way splitter over one mechanism, without sampling.
func twoWay(mc MechConfig, table Table) *Splitter {
	return NewSplitter(SplitConfig{Ways: 2, Root: mc, SampleLimit: 31}, table)
}

// eightWay returns cfg with a third level (|RZ| = |RX|/4).
func eightWay(cfg SplitConfig) SplitConfig {
	cfg.Ways = 8
	return cfg
}

// TestFilterRandomStream checks the §3.4 goal end-to-end: on a uniformly
// random (non-splittable) working set the filtered transition frequency
// must be small — the migration penalty is never compensated on such
// sets, so the filter must keep transitions well under control (vs. the
// unfiltered 50%).
func TestFilterRandomStream(t *testing.T) {
	g := trace.Must(trace.NewUniform(4000, 42))
	s := twoWay(MechConfig{WindowSize: 100, AffinityBits: 16, FilterBits: 20}, NewUnbounded())
	for i := 0; i < 1_000_000; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	start := s.Transitions()
	const probe = 1_000_000
	for i := 0; i < probe; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	freq := float64(s.Transitions()-start) / probe
	if freq > 0.03 {
		t.Fatalf("filtered transition frequency on random stream = %.4f, want ≤ 0.03", freq)
	}
}

// TestSplitter2TransitionsLowOnCircular: with a splittable stream the
// filtered transition frequency must be near the optimal 1 per N/2.
func TestSplitter2TransitionsLowOnCircular(t *testing.T) {
	const n = 4000
	g := trace.NewCircular(n)
	s := twoWay(MechConfig{WindowSize: 100, AffinityBits: 16, FilterBits: 20}, NewUnbounded())
	for i := 0; i < 500_000; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	start := s.Transitions()
	const probe = 400_000
	for i := 0; i < probe; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	freq := float64(s.Transitions()-start) / probe
	// Optimal: 2 transitions per lap of 4000 = 5e-4. Allow up to 3x.
	if freq > 1.5e-3 {
		t.Fatalf("filtered transition frequency on Circular = %.5f, want ≈5e-4", freq)
	}
	if s.Transitions() == 0 {
		t.Fatal("no transitions at all: filter stuck")
	}
}

// TestSplitter4Circular: 4-way splitting of a Circular working set must
// cut it in 4 near-quarters (each subset serving ~25% of references) with
// low transition frequency — this is the foundation of the Figure 4/5
// "split" curves.
func TestSplitter4Circular(t *testing.T) {
	const n = 8000
	g := trace.NewCircular(n)
	s := NewSplitter(Fig45Config(), NewUnbounded())
	for i := 0; i < 1_000_000; i++ {
		s.Ref(mem.Line(g.Next()), true)
	}
	var counts [4]uint64
	start := s.Transitions()
	const probe = 400_000
	for i := 0; i < probe; i++ {
		counts[s.Ref(mem.Line(g.Next()), true)]++
	}
	for sub, c := range counts {
		frac := float64(c) / probe
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("subset %d serves %.1f%% of references; want near 25%% (counts %v)", sub, frac*100, counts)
		}
	}
	freq := float64(s.Transitions()-start) / probe
	if freq > 0.01 {
		t.Fatalf("4-way transition frequency on Circular = %.5f, want < 0.01", freq)
	}
}

// TestSplitter4SampledStillClassifies: with 25% sampling, sampled-out
// lines must still receive a subset (from the current filter signs), and
// roughly 74% of references must bypass the affinity machinery
// (24 of 31 hash residues).
func TestSplitter4SampledStillClassifies(t *testing.T) {
	const n = 4000
	g := trace.NewCircular(n)
	s := NewSplitter(Table2Config(), NewUnbounded())
	const total = 500_000
	for i := 0; i < total; i++ {
		sub := s.Ref(mem.Line(g.Next()), true)
		if sub < 0 || sub > 3 {
			t.Fatalf("subset out of range: %d", sub)
		}
	}
	frac := float64(s.SampledOut()) / total
	want := 23.0 / 31.0 // residues 8..30
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("sampled-out fraction = %.3f, want ≈%.3f", frac, want)
	}
}

// TestSplitter4DeferredFilter checks the two-phase protocol used by the
// machine model: Ref(e, false) must not move the filters; CommitLastFilter
// must apply exactly the pending Ae.
func TestSplitter4DeferredFilter(t *testing.T) {
	s := NewSplitter(Fig45Config(), NewUnbounded())
	// Drive a splittable stream without committing: subset must stay 0.
	g := trace.NewCircular(1000)
	for i := 0; i < 200_000; i++ {
		s.Ref(mem.Line(g.Next()), false)
		if got := s.Mech(0).Filter(); got != 0 {
			t.Fatalf("filter moved without commit: %d", got)
		}
	}
	// Now commit after each ref: filters move.
	moved := false
	for i := 0; i < 200_000; i++ {
		s.Ref(mem.Line(g.Next()), false)
		s.CommitLastFilter()
		if s.Mech(0).Filter() != 0 || s.Mech(1).Filter() != 0 || s.Mech(2).Filter() != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("filters never moved despite commits")
	}
}

// TestHash31MatchesMod verifies the carry-save block reduction equals
// e mod 31 for all inputs (property-based).
func TestHash31MatchesMod(t *testing.T) {
	f := func(e uint64) bool {
		return Hash31(mem.Line(e)) == uint32(e%31)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	// Edge cases.
	for _, e := range []uint64{0, 30, 31, 32, 61, 62, 1<<64 - 1, 1 << 63, 0xFFFFFFFF} {
		if Hash31(mem.Line(e)) != uint32(e%31) {
			t.Fatalf("Hash31(%d) = %d, want %d", e, Hash31(mem.Line(e)), e%31)
		}
	}
}

// TestSignProperties: sign is ±1 and sign(0) = +1 (§3.2).
func TestSignProperties(t *testing.T) {
	if Sign(0) != 1 {
		t.Fatal("sign(0) must be +1")
	}
	f := func(x int64) bool {
		s := Sign(x)
		if x >= 0 {
			return s == 1
		}
		return s == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSatProperties: saturating addition stays in range, is monotone, and
// agrees with plain addition when in range (property-based).
func TestSatProperties(t *testing.T) {
	s := SatBits(16)
	f := func(a, b int32) bool {
		// constrain operands to a plausible register range
		x, y := int64(a%40000), int64(b%40000)
		r := s.Add(x, y)
		if r < s.Min || r > s.Max {
			return false
		}
		if x+y >= s.Min && x+y <= s.Max && r != x+y {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestSatBitsRange spot-checks the documented widths.
func TestSatBitsRange(t *testing.T) {
	cases := []struct {
		bits     uint
		min, max int64
	}{
		{16, -32768, 32767},
		{17, -65536, 65535},
		{18, -131072, 131071},
		{20, -524288, 524287},
	}
	for _, c := range cases {
		s := SatBits(c.bits)
		if s.Min != c.min || s.Max != c.max {
			t.Fatalf("SatBits(%d) = [%d,%d], want [%d,%d]", c.bits, s.Min, s.Max, c.min, c.max)
		}
	}
}

// TestIdealSplitsCircular: the Definition-1 reference implementation must
// split a small Circular working set too.
func TestIdealSplitsCircular(t *testing.T) {
	const n = 200
	d := NewIdeal(20, 16) // |R| = 20 << N/2
	g := trace.NewCircular(n)
	for i := 0; i < 100_000; i++ {
		d.Ref(mem.Line(g.Next()))
	}
	var pos int
	for e := uint64(0); e < n; e++ {
		if Sign(d.AffinityOf(mem.Line(e))) > 0 {
			pos++
		}
	}
	if pos < n*30/100 || pos > n*70/100 {
		t.Fatalf("ideal algorithm did not balance Circular: %d/%d positive", pos, n)
	}
}

// TestIdealNegativeFeedback: starting from a biased affinity
// distribution, the ideal algorithm must pull the total affinity back
// toward balance (§3.2's negative feedback).
func TestIdealNegativeFeedback(t *testing.T) {
	const n = 100
	d := NewIdeal(10, 0)
	g := trace.Must(trace.NewUniform(n, 7))
	// Touch everything once, then bias every element positive.
	for e := uint64(0); e < n; e++ {
		d.Ref(mem.Line(e))
	}
	for e := uint64(0); e < n; e++ {
		d.aff[mem.Line(e)] = 1000
	}
	for i := 0; i < 30_000; i++ {
		d.Ref(mem.Line(g.Next()))
	}
	var total int64
	for e := uint64(0); e < n; e++ {
		total += d.AffinityOf(mem.Line(e))
	}
	if total > 1000*n/2 {
		t.Fatalf("negative feedback failed: total affinity still %d after bias %d", total, 1000*n)
	}
}

// TestMechanismMatchesIdealSignBalance: on the same splittable stream,
// the practical mechanism and the ideal algorithm must agree that the
// working set splits into two balanced halves (they need not agree
// element-by-element — saturation and FIFO relaxation differ).
func TestMechanismMatchesIdealSignBalance(t *testing.T) {
	const n, window = 400, 20
	gi := trace.NewCircular(n)
	gm := trace.NewCircular(n)
	id := NewIdeal(window, 16)
	me := NewMechanism(MechConfig{WindowSize: window, AffinityBits: 16, FilterBits: 20}, NewUnbounded())
	for i := 0; i < 150_000; i++ {
		id.Ref(mem.Line(gi.Next()))
		me.Ref(mem.Line(gm.Next()), false)
	}
	count := func(aff func(mem.Line) int64) int {
		pos := 0
		for e := uint64(0); e < n; e++ {
			if Sign(aff(mem.Line(e))) > 0 {
				pos++
			}
		}
		return pos
	}
	pi := count(id.AffinityOf)
	pm := count(me.AffinityOf)
	if pi < n*30/100 || pi > n*70/100 {
		t.Fatalf("ideal unbalanced: %d/%d", pi, n)
	}
	if pm < n*30/100 || pm > n*70/100 {
		t.Fatalf("mechanism unbalanced: %d/%d", pm, n)
	}
}

// BenchmarkSplitterRef measures one splitter reference at 2, 4 and 8
// ways in the machine's setting: the Table2 configuration, the bounded
// affinity cache ConfigForCores sizes for that many cores, and deferred
// filter updates committed on every fourth reference.
func BenchmarkSplitterRef(b *testing.B) {
	for _, ways := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ways%d", ways), func(b *testing.B) {
			cfg := Table2Config()
			cfg.Ways = ways
			s := NewSplitter(cfg, NewCache(2048*ways, 4))
			g := trace.NewCircular(24 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Ref(mem.Line(g.Next()), false)
				if i&3 == 0 {
					s.CommitLastFilter()
				}
			}
		})
	}
}
