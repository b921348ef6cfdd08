// Package affinity implements the paper's primary contribution: the
// affinity algorithm (Michaud, HPCA 2004, §3), an online hardware
// mechanism that splits a program working set into subsets so a
// migration controller can distribute it over per-core L2 caches.
//
// Two implementations are provided:
//
//   - Mechanism (mechanism.go) is the practical implementation of the
//     paper's Figure 2: postponed updates via the ∆ register, an R-window
//     FIFO holding (line, Ie) pairs, an incrementally-maintained AR
//     register, saturating fixed-width arithmetic, and a transition
//     filter. This is the version the paper simulates (§3.3: "The version
//     of the algorithm we implemented is the one described on Figure 2").
//
//   - Ideal (ideal.go) is a direct O(N)-per-reference transcription of
//     Definition 1, used by tests as a behavioural reference.
//
// Splitter (split.go) applies Mechanism recursively: a binary tree of
// one, two or three levels splits the working set 2, 4 or 8 ways. Two
// levels are the 4-way splitting of §3.6 (mechanisms X, Y[+1], Y[−1]
// sharing one affinity table, routed by the parity of the sampling hash
// H(e) = e mod 31); one level is the 2-core case and three levels the
// larger core counts that §6 anticipates.
package affinity

// Sat describes a saturating signed integer of a fixed bit width, as used
// by the paper's hardware dimensioning (§3.2, "Limited number of affinity
// bits"): 16-bit Oe/Ie, (16+log2|R|)-bit AR, 17-bit ∆, 18/20-bit filters.
type Sat struct {
	Min, Max int64
}

// SatBits returns the saturating range of a b-bit two's-complement
// integer: [−2^(b−1), 2^(b−1)−1]. b must be in [2, 62].
func SatBits(b uint) Sat {
	if b < 2 || b > 62 {
		//emlint:allowpanic widths come from Validated configs (AffinityBits/FilterBits bounds are tighter than [2,62])
		panic("affinity: SatBits width out of range")
	}
	half := int64(1) << (b - 1)
	return Sat{Min: -half, Max: half - 1}
}

// Clamp saturates v into the range.
func (s Sat) Clamp(v int64) int64 {
	if v > s.Max {
		return s.Max
	}
	if v < s.Min {
		return s.Min
	}
	return v
}

// Add returns a+b saturated into the range. Operands are assumed to be
// far from the int64 limits (true for all widths ≤ 62 bits).
func (s Sat) Add(a, b int64) int64 { return s.Clamp(a + b) }

// Sign implements the paper's sign function: +1 for x ≥ 0, −1 for x < 0.
// Note sign(0) = +1 by definition (§3.2).
func Sign(x int64) int64 {
	if x >= 0 {
		return 1
	}
	return -1
}
