package affinity

import (
	"fmt"

	"repro/internal/mem"
)

// SplitConfig dimensions a Splitter.
type SplitConfig struct {
	// Ways is the number of subsets: 2, 4 or 8, produced by one, two or
	// three levels of 2-way mechanisms.
	Ways int
	// Root dimensions the top-level mechanism X, which splits the whole
	// working set. Each level below halves the window and keeps the
	// widths, as the paper does (|RY| = |RX|/2).
	Root MechConfig
	// SampleLimit applies working-set sampling (§3.5): only lines with
	// H(e) < SampleLimit update the affinity machinery; the rest are
	// classified by the current filter signs alone. It must be in
	// [1,31]: 31 disables sampling, 8 is the paper's 25% (8/31 ≈ 26%).
	SampleLimit uint32
}

// Fig45Config returns the paper's §4.1 (Figures 4 & 5) parameters:
// 4-way, |RX| = 128, |RY| = 64, 16 affinity bits, 20-bit transition
// filters, no sampling, unlimited table (the caller supplies
// NewUnbounded()).
func Fig45Config() SplitConfig {
	return SplitConfig{
		Ways:        4,
		Root:        MechConfig{WindowSize: 128, AffinityBits: 16, FilterBits: 20},
		SampleLimit: 31,
	}
}

// Table2Config returns the paper's §4.2 (Table 2) parameters: 4-way,
// 18-bit transition filters (2 bits shorter, matching the 25%
// sampling), |RX| = 128, |RY| = 64, SampleLimit 8.
func Table2Config() SplitConfig {
	return SplitConfig{
		Ways:        4,
		Root:        MechConfig{WindowSize: 128, AffinityBits: 16, FilterBits: 18},
		SampleLimit: 8,
	}
}

// levels returns log2(Ways), or 0 for an unsupported way count.
func (c SplitConfig) levels() int {
	switch c.Ways {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return 0
}

// level returns the configuration of the mechanisms at depth l (0 is
// the root): Root with its window halved l times.
func (c SplitConfig) level(l int) MechConfig {
	m := c.Root
	m.WindowSize >>= l
	return m
}

// Validate reports whether the configuration is usable.
func (c SplitConfig) Validate() error {
	n := c.levels()
	if n == 0 {
		return fmt.Errorf("affinity: unsupported Ways %d (want 2, 4 or 8)", c.Ways)
	}
	for l := 0; l < n; l++ {
		if err := c.level(l).Validate(); err != nil {
			return err
		}
	}
	if c.SampleLimit == 0 || c.SampleLimit > 31 {
		return fmt.Errorf("affinity: sample limit %d out of [1,31]", c.SampleLimit)
	}
	return nil
}

// Splitter splits a working set into Ways subsets by applying 2-way
// splitting recursively: §3.6 builds the 4-way split this way, and §6
// expects the scheme to work on 2 cores and extend to more. The
// splitter is a complete binary tree of log2(Ways) levels of
// Mechanisms sharing one affinity table, stored breadth-first: node i's
// filter sign picks child 2i+1 (+1) or 2i+2 (−1). The subset of any
// reference is the sign bits along the path from the root, most
// significant first, with bit 0 for +1 and 1 for −1.
//
// The sampling hash routes each sampled-in line to one node on the
// current path by choosing its level. With one level that is the root;
// with two, odd H(e) goes to X and even H(e) to the selected Y (§3.6);
// with three, the level is H(e) mod 3.
type Splitter struct {
	// mechs is the tree; the first Ways−1 nodes are used. A fixed array
	// rather than a slice spares the walk a slice-header load per node.
	mechs [7]*Mechanism
	// Not checkpointed: configuration; states restore into identically configured splitters.
	levels int
	// Not checkpointed: configuration; states restore into identically configured splitters.
	sampleLimit uint32

	refs        uint64
	sampledOut  uint64
	transitions uint64
	prev        int
	started     bool

	// pending is the node whose transition-filter update the most
	// recent Ref(e, false) deferred, or −1; pendingAe is its Ae.
	pending   int
	pendingAe int64
}

// NewSplitter builds a splitter over the shared table.
func NewSplitter(cfg SplitConfig, table Table) *Splitter {
	if err := cfg.Validate(); err != nil {
		//emlint:allowpanic configurations are Validated by migration.NewPolicy and the front ends first
		panic(err)
	}
	s := &Splitter{levels: cfg.levels(), sampleLimit: cfg.SampleLimit, pending: -1}
	i := 0
	for l := 0; l < s.levels; l++ {
		for k := 0; k < 1<<l; k++ {
			s.mechs[i] = NewMechanism(cfg.level(l), table)
			i++
		}
	}
	return s
}

// bit converts a filter side (±1) to a subset bit (0 for +1, 1 for −1).
func bit(side int64) int {
	if side < 0 {
		return 1
	}
	return 0
}

// node returns the index of the current path's node at level l. At
// l = levels it is the leaf below the tree, whose index less Ways−1 is
// the subset.
func (s *Splitter) node(l int) int {
	i := 0
	for ; l > 0; l-- {
		i = 2*i + 1 + bit(s.mechs[i].Side())
	}
	return i
}

// route returns the level of the path node that processes a sampled-in
// line with sampling hash h.
func (s *Splitter) route(h uint32) int {
	switch s.levels {
	case 2:
		return int(h&1 ^ 1)
	case 3:
		return int(h % 3)
	}
	return 0
}

// Ref processes a reference to line e and returns the subset the
// transition filters designate for it. updateFilter applies the
// paper's L2 filtering (§3.4): with false the affinity machinery still
// updates (window, AR, ∆, table) but the transition filter does not;
// CommitLastFilter applies the pending update afterwards, which the
// machine model does when the request misses the L2.
func (s *Splitter) Ref(e mem.Line, updateFilter bool) int {
	s.pending = -1
	if h := Hash31(e); h < s.sampleLimit {
		i := s.node(s.route(h))
		ae := s.mechs[i].Ref(e, updateFilter)
		if !updateFilter {
			s.pending, s.pendingAe = i, ae
		}
	} else {
		s.sampledOut++
	}
	s.refs++
	return s.noteSubset(updateFilter)
}

// CommitLastFilter applies the transition-filter update deferred by the
// most recent Ref(e, false), if that reference was sampled in, and
// returns the (possibly new) subset.
func (s *Splitter) CommitLastFilter() int {
	moved := s.pending >= 0
	if moved {
		s.mechs[s.pending].UpdateFilter(s.pendingAe)
		s.pending = -1
	}
	return s.noteSubset(moved)
}

// noteSubset maintains prev, the current subset, and the transition
// count. Only Ref and CommitLastFilter move filters, and each ends
// here, so when moved reports that no filter changed the subset is
// still prev and the path walk is skipped: the deferred Ref and the
// commit of a sampled-out request, most of the machine's calls.
func (s *Splitter) noteSubset(moved bool) int {
	if moved {
		sub := s.Subset()
		if s.started && sub != s.prev {
			s.transitions++
		}
		s.prev = sub
	}
	s.started = true
	return s.prev
}

// Subset returns the currently designated subset without processing a
// reference.
func (s *Splitter) Subset() int { return s.node(s.levels) - (1<<s.levels - 1) }

// Ways returns the number of subsets produced (2, 4 or 8).
func (s *Splitter) Ways() int { return 1 << s.levels }

// Mech returns node i of the tree, breadth-first: 0 is X, 1 and 2 are
// Y[+1] and Y[−1], and so on. It is for instrumentation: a filter moved
// through it would leave the splitter's noted subset stale.
func (s *Splitter) Mech(i int) *Mechanism { return s.tree()[i] }

// tree returns the splitter's mechanisms in breadth-first order.
func (s *Splitter) tree() []*Mechanism { return s.mechs[:s.Ways()-1] }

// MinFilterFraction returns the smallest |F|/saturation across the
// deciding transition filters, those on the current path: how close
// the splitter is to designating a different subset (§6's
// broadcast-gating signal).
func (s *Splitter) MinFilterFraction() float64 {
	i := 0
	min := s.mechs[0].FilterFraction()
	for l := 1; l < s.levels; l++ {
		i = 2*i + 1 + bit(s.mechs[i].Side())
		if f := s.mechs[i].FilterFraction(); f < min {
			min = f
		}
	}
	return min
}

// Transitions returns the number of subset changes observed across
// consecutive Ref and CommitLastFilter calls.
func (s *Splitter) Transitions() uint64 { return s.transitions }

// Refs returns the number of references processed.
func (s *Splitter) Refs() uint64 { return s.refs }

// SampledOut returns how many references bypassed the affinity
// machinery because of working-set sampling.
func (s *Splitter) SampledOut() uint64 { return s.sampledOut }
