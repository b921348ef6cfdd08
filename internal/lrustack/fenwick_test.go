package lrustack

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// This file holds the test oracle: the time-slot/Fenwick-tree LRU stack
// that reports exact depths. Each line holds the (monotonically
// increasing) time slot of its last reference; the stack depth of a
// reference equals the number of lines whose slot is more recent — a
// prefix-sum query, O(log n). Slots are compacted when the slot array
// outgrows twice the number of live lines. It shares no code with the
// bucketed Stack, which the property tests check against it.

// Infinite is the depth reported for a first-touch reference (the paper:
// "a reference which is encountered for the first time has an infinite
// LRU stack depth").
const Infinite = int64(^uint64(0) >> 1)

// fenwickStack is an LRU stack with O(log n) depth queries. By default
// it is unbounded — it tracks every distinct line ever referenced;
// newFenwickLimited caps the live-line count with LRU eviction.
type fenwickStack struct {
	slot map[mem.Line]int64 // line → time slot of last reference
	// Fenwick tree over slots, 1-based.
	tree []int64
	// used is the next free slot (number of slots consumed).
	used int64
	// live is the number of live (distinct) lines.
	live int64
	// scratch is reused during compaction.
	scratch []mem.Line
	limit   int64 // max live lines (0 = unbounded)
	// rev maps slot → line, maintained only when limited.
	rev     map[int64]mem.Line
	dropped uint64 // lines evicted by the cap
}

// newFenwick returns an empty unbounded stack.
func newFenwick() *fenwickStack {
	return &fenwickStack{
		slot: make(map[mem.Line]int64),
		tree: make([]int64, 1024),
	}
}

// newFenwickLimited returns a stack that never tracks more than limit
// distinct lines: when a first touch would exceed the cap, the least recently
// used line is evicted and counted in Dropped, and its next reference
// reads as a first touch (Infinite) again. limit <= 0 means unbounded.
//
// The capped stack stays EXACT for every threshold <= limit: an evicted
// line had depth >= limit at eviction, and depth only grows until the
// line is re-referenced, so the unbounded stack would also report a
// miss at every threshold <= limit for that reference. Only the
// cold-versus-deep-miss attribution above the cap is approximated.
func newFenwickLimited(limit int64) *fenwickStack {
	s := newFenwick()
	if limit > 0 {
		s.limit = limit
		s.rev = make(map[int64]mem.Line)
	}
	return s
}

// add updates the Fenwick tree at slot i (0-based) by delta.
func (s *fenwickStack) add(i int64, delta int64) {
	for j := i + 1; j <= int64(len(s.tree)-1); j += j & (-j) {
		s.tree[j] += delta
	}
}

// sum returns the count of live slots in [0, i] (0-based inclusive).
func (s *fenwickStack) sum(i int64) int64 {
	var t int64
	for j := i + 1; j > 0; j -= j & (-j) {
		t += s.tree[j]
	}
	return t
}

// grow ensures capacity for one more slot, compacting or resizing.
func (s *fenwickStack) grow() {
	if s.used+1 < int64(len(s.tree)) {
		return
	}
	if s.used >= 2*s.live && s.live > 0 {
		s.compact()
		return
	}
	// Double the tree, rebuilding (O(n)); amortised O(log n) per ref.
	old := s.tree
	s.tree = make([]int64, 2*len(old))
	s.rebuild()
}

// compact reassigns dense slots preserving order, then rebuilds.
func (s *fenwickStack) compact() {
	// Collect lines ordered by slot. Counting them in slot order via a
	// scratch array indexed by old slot would need O(used) memory, which
	// we already have in the tree; simplest is sort-free bucketing:
	lines := s.scratch[:0]
	for l := range s.slot {
		lines = append(lines, l)
	}
	// insertion-free ordering: sort by slot using a simple slice sort.
	sortBySlot(lines, s.slot)
	s.scratch = lines[:0]
	for i, l := range lines {
		s.slot[l] = int64(i)
	}
	if s.rev != nil {
		clear(s.rev)
		for i, l := range lines {
			s.rev[int64(i)] = l
		}
	}
	s.used = int64(len(lines))
	s.rebuild()
}

// rebuild zeroes and repopulates the Fenwick tree from the slot map.
func (s *fenwickStack) rebuild() {
	for i := range s.tree {
		s.tree[i] = 0
	}
	for _, sl := range s.slot {
		s.add(sl, 1)
	}
}

// sortBySlot sorts lines ascending by their last-reference slot.
// Compaction is rare (amortised over ≥ live references), so stdlib sort
// is fine here.
func sortBySlot(lines []mem.Line, slot map[mem.Line]int64) {
	sort.Slice(lines, func(i, j int) bool { return slot[lines[i]] < slot[lines[j]] })
}

// Ref records a reference to line and returns its stack depth BEFORE the
// reference: the number of distinct lines referenced since the previous
// reference to line, or Infinite on first touch. A depth of 0 means line
// was also the immediately preceding reference.
func (s *fenwickStack) Ref(line mem.Line) int64 {
	old, seen := s.slot[line]
	var depth int64
	if seen {
		// lines with slot strictly greater than old
		depth = s.live - s.sum(old)
		s.add(old, -1)
		// Remove the stale mapping before grow(): a rebuild/compaction
		// inside grow() repopulates the tree from the slot map and must
		// not resurrect the old slot.
		delete(s.slot, line)
		if s.rev != nil {
			delete(s.rev, old)
		}
	} else {
		depth = Infinite
		s.live++
	}
	s.grow()
	s.slot[line] = s.used
	s.add(s.used, 1)
	if s.rev != nil {
		s.rev[s.used] = line
	}
	s.used++
	if s.limit > 0 && s.live > s.limit {
		s.evict()
	}
	return depth
}

// evict removes the least recently used live line. Only called when
// live > limit >= 1, so the victim is never the line just inserted
// (which holds the highest slot while at least one other line is live).
func (s *fenwickStack) evict() {
	sl := s.lowestLive()
	line, ok := s.rev[sl]
	if !ok {
		panic("lrustack: reverse slot map out of sync")
	}
	s.add(sl, -1)
	delete(s.slot, line)
	delete(s.rev, sl)
	s.live--
	s.dropped++
}

// lowestLive returns the 0-based slot of the oldest live line — the
// smallest slot whose prefix count reaches 1 — via the standard Fenwick
// binary descend: walk power-of-two strides, keeping the largest tree
// index whose cumulative sum is still short of the target.
func (s *fenwickStack) lowestLive() int64 {
	var pos int64
	rem := int64(1)
	mask := int64(1)
	for mask*2 < int64(len(s.tree)) {
		mask *= 2
	}
	for ; mask > 0; mask >>= 1 {
		if next := pos + mask; next < int64(len(s.tree)) && s.tree[next] < rem {
			rem -= s.tree[next]
			pos = next
		}
	}
	return pos
}

// Live returns the number of live (distinct, not evicted) lines.
func (s *fenwickStack) Live() int64 { return s.live }

// Dropped returns the number of lines evicted by the cap.
func (s *fenwickStack) Dropped() uint64 { return s.dropped }

// Record adds one observed depth.
func (p *Profile) Record(depth int64) {
	p.Refs++
	if depth == Infinite {
		p.Cold++
		for i := range p.Misses {
			p.Misses[i]++
		}
		return
	}
	// Thresholds ascend; find the first threshold > depth. All
	// thresholds <= depth are misses.
	for i := len(p.Thresholds) - 1; i >= 0; i-- {
		if depth >= p.Thresholds[i] {
			for j := 0; j <= i; j++ {
				p.Misses[j]++
			}
			break
		}
	}
}

// StackState is the serialisable state of a fenwickStack: the live lines in
// recency order plus the eviction counter. Slot numbers, the Fenwick
// tree and the reverse map are representation details — only the order
// matters for depth queries — so restore re-densifies slots to
// 0..live-1 and rebuilds the derived structures.
type StackState struct {
	// Lines holds the live lines, least recently used first.
	Lines []mem.Line
	// Limit echoes the producing stack's cap for shape validation.
	Limit int64
	// Dropped is the number of lines evicted by the cap.
	Dropped uint64
}

// State returns a deep copy of the stack's state. The line order is
// deterministic (ascending last-reference slot), so identical stacks
// serialise identically.
func (s *fenwickStack) State() StackState {
	lines := make([]mem.Line, 0, len(s.slot))
	for l := range s.slot {
		lines = append(lines, l)
	}
	sortBySlot(lines, s.slot)
	return StackState{
		Lines:   lines,
		Limit:   s.limit,
		Dropped: s.dropped,
	}
}

// SetState restores a previously captured state, replacing the stack's
// contents. The receiving stack must have the same limit regime as the
// producer.
func (s *fenwickStack) SetState(st StackState) error {
	if st.Limit != s.limit {
		return fmt.Errorf("lrustack: state limit %d, stack limit %d", st.Limit, s.limit)
	}
	if s.limit > 0 && int64(len(st.Lines)) > s.limit {
		return fmt.Errorf("lrustack: state has %d live lines, limit is %d", len(st.Lines), s.limit)
	}
	slot := make(map[mem.Line]int64, len(st.Lines))
	for i, l := range st.Lines {
		if _, dup := slot[l]; dup {
			return fmt.Errorf("lrustack: state holds line %d twice", l)
		}
		slot[l] = int64(i)
	}
	s.slot = slot
	s.live = int64(len(st.Lines))
	s.used = s.live
	treeCap := 1024
	for int64(treeCap) <= s.used+1 {
		treeCap *= 2
	}
	s.tree = make([]int64, treeCap)
	s.rebuild()
	if s.rev != nil {
		clear(s.rev)
		for l, sl := range s.slot {
			s.rev[sl] = l
		}
	}
	s.scratch = s.scratch[:0]
	s.dropped = st.Dropped
	return nil
}
