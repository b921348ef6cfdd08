package cache

import "repro/internal/mem"

// FullyAssoc is a fully-associative cache with exact LRU replacement,
// implemented as a hash map plus an intrusive doubly-linked LRU list over
// frames, so Ref is O(1). The paper's §4.1 experiments use 16-Kbyte
// fully-associative LRU L1 caches as the stream filter in front of
// Table 1's miss counts and the LRU-stack profiler; there a reference
// either hits or fills, so Ref is the whole interface.
type FullyAssoc struct {
	index map[mem.Line]int32
	lines []mem.Line // frames in fill order; full when len == cap
	next  []int32    // toward LRU
	prev  []int32    // toward MRU
	head  int32      // MRU frame, -1 when empty
	tail  int32      // LRU frame, -1 when empty
}

// NewFullyAssoc builds a fully-associative LRU cache with the given
// number of line frames.
func NewFullyAssoc(capacityLines int) *FullyAssoc {
	if capacityLines < 1 {
		//emlint:allowpanic capacities come from paper constants
		panic("cache: fully-associative capacity < 1")
	}
	return &FullyAssoc{
		index: make(map[mem.Line]int32, capacityLines*2),
		lines: make([]mem.Line, 0, capacityLines),
		next:  make([]int32, capacityLines),
		prev:  make([]int32, capacityLines),
		head:  -1,
		tail:  -1,
	}
}

// Ref references line. On a hit the line becomes the MRU line. On a
// miss it is inserted as the MRU line, evicting the LRU line when every
// frame is full.
func (c *FullyAssoc) Ref(line mem.Line) (hit bool) {
	if f, ok := c.index[line]; ok {
		if f != c.head {
			c.unlink(f)
			c.pushFront(f)
		}
		return true
	}
	var f int32
	if len(c.lines) < cap(c.lines) {
		f = int32(len(c.lines))
		c.lines = append(c.lines, line)
	} else {
		f = c.tail
		delete(c.index, c.lines[f])
		c.unlink(f)
		c.lines[f] = line
	}
	c.index[line] = f
	c.pushFront(f)
	return false
}

// unlink removes frame f from the LRU list.
func (c *FullyAssoc) unlink(f int32) {
	if c.prev[f] >= 0 {
		c.next[c.prev[f]] = c.next[f]
	} else {
		c.head = c.next[f]
	}
	if c.next[f] >= 0 {
		c.prev[c.next[f]] = c.prev[f]
	} else {
		c.tail = c.prev[f]
	}
}

// pushFront makes frame f the MRU.
func (c *FullyAssoc) pushFront(f int32) {
	c.prev[f] = -1
	c.next[f] = c.head
	if c.head >= 0 {
		c.prev[c.head] = f
	}
	c.head = f
	if c.tail < 0 {
		c.tail = f
	}
}
