// Package lrustack implements Mattson's LRU stack-distance profiler
// (Mattson et al., "Evaluation techniques for storage hierarchies",
// 1970), the tool behind the paper's §4.1 experiments: a single pass
// over a reference stream yields, for every cache size x at once, the
// miss ratio of a fully-associative LRU cache of that size — the curve
// p(x) plotted in the paper's Figures 4 and 5.
//
// Every consumer asks about a fixed grid of sizes, so the stack answers
// bucket queries rather than exact depths, with the marker technique of
// stack simulation over a size grid (Kim, Hill and Wood, "Implementing
// Stack Simulation for Highly-Associative Memories", SIGMETRICS '91).
// The stack is a move-to-front list of lines in a slice arena. One
// marker per threshold T[j] points at the node at depth T[j], and each
// node carries the index of the bucket it sits in. A reference looks its
// line up, counts its bucket, and moves it to the front; the only nodes
// that change bucket are the ones next to the markers above it, so a
// reference costs O(number of thresholds) whatever the stack depth.
package lrustack

import (
	"repro/internal/mem"
)

// none marks an absent node link or an unset marker.
const none = -1

// node is one stack entry: a line, its MRU-side and LRU-side
// neighbours, and the bucket its depth falls in.
type node struct {
	line       mem.Line
	prev, next int32 // toward the head (MRU) and toward the tail (LRU)
	bucket     uint8
}

// Stack is an exact LRU stack over a fixed threshold grid. It counts,
// per reference, which bucket of the grid its stack depth falls in:
// bucket b holds depths d with T[b-1] <= d < T[b], and the last bucket
// holds every depth >= the largest threshold. First touches count as
// Cold. Profile turns the counts into miss counts per threshold.
//
// The depth of a reference is the number of other distinct lines
// referenced since the previous reference to the same line, so a
// fully-associative LRU cache of capacity x lines misses exactly when
// the depth is >= x.
type Stack struct {
	th    []int64
	limit int64 // max live lines (0 = unbounded)

	index lineIndex // line → node
	nodes []node    // arena; freed nodes chain through next
	free  int32
	head  int32
	tail  int32
	live  int64

	// marker[j] is the node at depth th[j], or none while the stack is
	// shallower than that.
	marker []int32

	counts  []uint64 // non-cold references per bucket, since ResetCounts
	cold    uint64   // first touches, since ResetCounts
	dropped uint64   // lines evicted by the cap
}

// New returns an empty stack over the given ascending thresholds (in
// lines, each >= 1) that never tracks more than limit distinct lines:
// when a first touch would exceed the cap, the least recently used line
// is evicted and counted in Dropped, and its next reference counts as a
// first touch again. limit <= 0 means unbounded.
//
// The capped stack stays EXACT for every threshold <= limit: an evicted
// line had depth >= limit at eviction, and depth only grows until the
// line is re-referenced, so an unbounded stack would also count a miss
// at every threshold <= limit for that reference. Only the
// cold-versus-deep-miss attribution above the cap is approximated.
func New(thresholds []int64, limit int64) *Stack {
	checkThresholds(thresholds)
	if len(thresholds) > 255 {
		//emlint:allowpanic threshold grids are compile-time experiment constants (see report/fig45.go)
		panic("lrustack: at most 255 thresholds")
	}
	s := &Stack{
		th:     append([]int64(nil), thresholds...),
		limit:  limit,
		free:   none,
		head:   none,
		tail:   none,
		marker: make([]int32, len(thresholds)),
		counts: make([]uint64, len(thresholds)+1),
	}
	for j := range s.marker {
		s.marker[j] = none
	}
	s.index.alloc(indexInitialLog2)
	return s
}

// Ref records one reference to line.
func (s *Stack) Ref(line mem.Line) {
	i, x := s.index.find(s.nodes, line)
	if x != none {
		s.hit(x)
		return
	}
	s.cold++
	x = s.alloc(line)
	s.index.insert(i, x)
	s.push(x)
	if s.limit > 0 && s.live > s.limit {
		s.evict()
	}
	if s.index.full() {
		s.index.grow(s.nodes)
	}
}

// hit counts a reference to the live node x and moves it to the front.
// Each of the b boundaries above x moves up by one node: the node just
// above marker j slides down to depth th[j] and so into bucket j+1.
func (s *Stack) hit(x int32) {
	nodes := s.nodes
	b := nodes[x].bucket
	s.counts[b]++
	for j := uint8(0); j < b; j++ {
		m := nodes[s.marker[j]].prev
		s.marker[j] = m
		nodes[m].bucket = j + 1
	}
	if x == s.head {
		return
	}
	p, n := nodes[x].prev, nodes[x].next
	nodes[p].next = n
	if n == none {
		s.tail = p
	} else {
		nodes[n].prev = p
	}
	nodes[x].prev = none
	nodes[x].next = s.head
	nodes[s.head].prev = x
	s.head = x
	nodes[x].bucket = 0
}

// push puts the new node x at the front. Every live node moves one
// deeper, so every boundary the stack already reaches moves up by one
// node; a boundary exactly one past the old tail picks up the old tail.
func (s *Stack) push(x int32) {
	nodes := s.nodes
	for j, t := range s.th {
		if t > s.live {
			break
		}
		m := s.tail
		if s.marker[j] != none {
			m = nodes[s.marker[j]].prev
		}
		s.marker[j] = m
		nodes[m].bucket = uint8(j + 1)
	}
	nodes[x].next = s.head
	if s.head == none {
		s.tail = x
	} else {
		nodes[s.head].prev = x
	}
	s.head = x
	s.live++
}

// alloc takes a node off the free list, or grows the arena by one, and
// initialises it for line.
//
// Allocates only on arena growth, amortised over the stack's distinct lines.
func (s *Stack) alloc(line mem.Line) int32 {
	x := s.free
	if x == none {
		x = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{})
	} else {
		s.free = s.nodes[x].next
	}
	s.nodes[x] = node{line: line, prev: none, next: none}
	return x
}

// evict drops the least recently used line. Only called when
// live > limit >= 1, so the tail is never the node just pushed.
func (s *Stack) evict() {
	x := s.tail
	for j, t := range s.th {
		if t == s.live-1 {
			s.marker[j] = none
		}
	}
	s.tail = s.nodes[x].prev
	s.nodes[s.tail].next = none
	s.index.remove(s.nodes, x)
	s.nodes[x].next = s.free
	s.free = x
	s.live--
	s.dropped++
}

// Profile returns the counts since the last ResetCounts as a Profile
// over the stack's thresholds: Misses[i] is the number of references
// with depth >= Thresholds[i], cold ones included.
func (s *Stack) Profile() *Profile {
	p := NewProfile(s.th)
	s.addTo(p)
	return p
}

// addTo adds the stack's counts into p, which must be over the same
// thresholds, materializing Misses as suffix sums of the bucket counts.
func (s *Stack) addTo(p *Profile) {
	deep := s.cold
	for i := len(s.th) - 1; i >= 0; i-- {
		deep += s.counts[i+1]
		p.Misses[i] += deep
	}
	p.Cold += s.cold
	p.Refs += deep + s.counts[0]
}

// ResetCounts zeroes the reference counts and keeps the stack: the
// interval sampler carves one long stream into per-interval profiles
// this way, with each interval's counts starting fresh over the
// cross-interval reuse history.
func (s *Stack) ResetCounts() {
	clear(s.counts)
	s.cold = 0
}

// Live returns the number of live (distinct, not evicted) lines.
func (s *Stack) Live() int64 { return s.live }

// Dropped returns the number of lines evicted by the cap.
func (s *Stack) Dropped() uint64 { return s.dropped }
