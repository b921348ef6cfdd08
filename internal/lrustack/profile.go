package lrustack

import "repro/internal/mem"

// Profile accumulates a stack-distance profile over a set of capacity
// thresholds, yielding the paper's p(x): the fraction of references
// whose stack depth exceeds each cache size.
type Profile struct {
	// Thresholds are capacities in lines, ascending.
	Thresholds []int64
	// Misses[i] counts references with depth >= Thresholds[i].
	Misses []uint64
	// Cold counts first-touch (infinite-depth) references, included in
	// every Misses[i].
	Cold uint64
	// Refs counts all references.
	Refs uint64
}

// NewProfile builds a profile over the given positive ascending
// capacities (in lines).
func NewProfile(thresholds []int64) *Profile {
	checkThresholds(thresholds)
	return &Profile{
		Thresholds: append([]int64(nil), thresholds...),
		Misses:     make([]uint64, len(thresholds)),
	}
}

// checkThresholds panics unless the grid is positive and strictly
// ascends.
func checkThresholds(thresholds []int64) {
	for i, t := range thresholds {
		if t < 1 || i > 0 && t <= thresholds[i-1] {
			//emlint:allowpanic threshold grids are compile-time experiment constants (see report/fig45.go)
			panic("lrustack: thresholds must be positive and ascend")
		}
	}
}

// PaperThresholds returns the capacities plotted in the paper's Figures
// 4 and 5 — 16KB to 16MB in powers of 4 plus the intermediate powers of
// 2 — expressed in 64-byte lines: 16KB=256 lines … 16MB=256k lines.
func PaperThresholds(lineShift uint) []int64 {
	var t []int64
	for bytes := int64(16 << 10); bytes <= 16<<20; bytes *= 2 {
		t = append(t, bytes>>lineShift)
	}
	return t
}

// Frac returns p(x) for threshold index i: the fraction of references
// with depth >= Thresholds[i].
func (p *Profile) Frac(i int) float64 {
	if p.Refs == 0 {
		return 0
	}
	return float64(p.Misses[i]) / float64(p.Refs)
}

// Reset zeroes the accumulated counts, keeping the threshold grid.
func (p *Profile) Reset() {
	for i := range p.Misses {
		p.Misses[i] = 0
	}
	p.Cold = 0
	p.Refs = 0
}

// Signature exports the profile as a normalized working-set fingerprint:
// one miss fraction per threshold followed by the cold (first-touch)
// fraction. Two intervals with similar signatures exercise the cache
// hierarchy similarly at every capacity in the grid, which is what makes
// the vector a clustering feature for interval sampling. A profile with
// no references yields the all-zero vector.
func (p *Profile) Signature() []float64 {
	sig := make([]float64, len(p.Thresholds)+1)
	if p.Refs == 0 {
		return sig
	}
	for i := range p.Thresholds {
		sig[i] = float64(p.Misses[i]) / float64(p.Refs)
	}
	sig[len(p.Thresholds)] = float64(p.Cold) / float64(p.Refs)
	return sig
}

// MultiStack routes each reference to one of k stacks (the §4.1 "split"
// experiment: the 4-way splitter chooses the stack) and profiles all of
// them as one: its Profile sums the k stacks' counts.
type MultiStack struct {
	Stacks []*Stack
}

// NewMultiStack builds k stacks over one threshold grid, each capped
// at perStack live lines (<= 0 = unbounded). See New for the accuracy
// guarantee: thresholds <= perStack are exact.
func NewMultiStack(k int, thresholds []int64, perStack int64) *MultiStack {
	ms := &MultiStack{}
	for i := 0; i < k; i++ {
		ms.Stacks = append(ms.Stacks, New(thresholds, perStack))
	}
	return ms
}

// Ref records a reference to line on stack k.
func (m *MultiStack) Ref(k int, line mem.Line) { m.Stacks[k].Ref(line) }

// Profile returns the summed counts of all k stacks.
func (m *MultiStack) Profile() *Profile {
	p := NewProfile(m.Stacks[0].th)
	for _, s := range m.Stacks {
		s.addTo(p)
	}
	return p
}

// Dropped returns the total lines evicted across all stacks.
func (m *MultiStack) Dropped() uint64 {
	var d uint64
	for _, s := range m.Stacks {
		d += s.Dropped()
	}
	return d
}
