package affinity

import "repro/internal/mem"

// Ideal is a direct transcription of the paper's Definition 1 (§3.2): on
// every reference, every element of the working set has its affinity
// incremented (if in R) or decremented (if not) by sign(AR). It costs
// O(N) per reference and exists as a behavioural reference for tests —
// the practical Mechanism must agree with it on the quantities the
// postponed-update bookkeeping preserves.
//
// Ideal keeps R as an exact FIFO multiset (same relaxation as the
// practical version: duplicates allowed), and applies no saturation
// unless Bits > 0.
type Ideal struct {
	// WindowSize is |R|.
	WindowSize int
	// Bits, if non-zero, saturates affinities at that width.
	Bits uint

	aff map[mem.Line]int64
	win []mem.Line
	sat Sat
}

// NewIdeal returns an Ideal splitter with the given R-window size.
// bits = 0 disables saturation (pure Definition 1).
func NewIdeal(windowSize int, bits uint) *Ideal {
	if windowSize < 1 {
		//emlint:allowpanic test-only reference model constructed with compile-time-constant sizes
		panic("affinity: ideal window size < 1")
	}
	s := Sat{Min: -1 << 62, Max: 1 << 62}
	if bits != 0 {
		s = SatBits(bits)
	}
	return &Ideal{
		WindowSize: windowSize,
		Bits:       bits,
		aff:        make(map[mem.Line]int64),
		sat:        s,
	}
}

// Ref processes a reference to line e per Definition 1 and returns the
// affinity of e after the update.
func (d *Ideal) Ref(e mem.Line) int64 {
	if _, ok := d.aff[e]; !ok {
		d.aff[e] = 0 // Ae(te) = 0 on first reference
	}
	d.win = append(d.win, e)
	if len(d.win) > d.WindowSize {
		d.win = d.win[1:]
	}

	// AR = sum of affinities of the R-window occupants (multiset).
	var ar int64
	for _, w := range d.win {
		ar += d.aff[w]
	}
	s := Sign(ar)

	inWin := make(map[mem.Line]bool, len(d.win))
	for _, w := range d.win {
		inWin[w] = true
	}
	// Each key is updated from its own value only, so map order cannot matter.
	for line, a := range d.aff {
		if inWin[line] {
			d.aff[line] = d.sat.Add(a, s)
		} else {
			d.aff[line] = d.sat.Add(a, -s)
		}
	}
	return d.aff[e]
}

// AffinityOf returns the current affinity of line e (0 if never seen).
func (d *Ideal) AffinityOf(e mem.Line) int64 { return d.aff[e] }
