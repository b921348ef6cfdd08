package lrustack

import "repro/internal/mem"

// lineIndex is the stack's line → node table: open addressing with
// linear probing, Fibonacci hashing and backward-shift deletion, so it
// carries no tombstones and its size follows the live lines. A slot
// holds node+1 (0 is an empty slot) and no key: a probe compares the
// node's line, which a hit reads next anyway, so a 4-byte slot does the
// work of a 12-byte one. The table doubles whenever it passes half
// full. The machine's modified-owner index (machine/owners.go) follows
// the same pattern, but packs its payload into the key.
type lineIndex struct {
	slots []int32
	mask  uint64
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	n     int
}

// indexInitialLog2 sizes a fresh index at 256 slots (1 KB).
const indexInitialLog2 = 8

// alloc replaces the table with an empty one of 2^log2 slots.
//
// Allocates only on table growth, amortised over the stack's distinct lines.
func (ix *lineIndex) alloc(log2 uint) {
	ix.slots = make([]int32, 1<<log2)
	ix.mask = 1<<log2 - 1
	ix.shift = 64 - log2
	ix.n = 0
}

// home is line's first probe slot.
func (ix *lineIndex) home(line mem.Line) uint64 {
	return (uint64(line) * 0x9e3779b97f4a7c15) >> ix.shift
}

// find returns the node holding line, or none, and the slot it was
// found in; on a miss the slot is the empty one that ends the probe run.
func (ix *lineIndex) find(nodes []node, line mem.Line) (uint64, int32) {
	for i := ix.home(line); ; i = (i + 1) & ix.mask {
		v := ix.slots[i]
		if v == 0 {
			return i, none
		}
		if nodes[v-1].line == line {
			return i, v - 1
		}
	}
}

// insert stores node x in the empty slot i that find returned for its
// line. The caller grows the table afterwards if it passed half full.
func (ix *lineIndex) insert(i uint64, x int32) {
	ix.slots[i] = x + 1
	ix.n++
}

// remove deletes node x from the table.
func (ix *lineIndex) remove(nodes []node, x int32) {
	i := ix.home(nodes[x].line)
	for ix.slots[i] != x+1 {
		i = (i + 1) & ix.mask
	}
	// Backward-shift deletion: pull each later entry of the run into
	// the hole unless its home lies cyclically in (hole, entry].
	for j := (i + 1) & ix.mask; ix.slots[j] != 0; j = (j + 1) & ix.mask {
		h := ix.home(nodes[ix.slots[j]-1].line)
		if (j-h)&ix.mask >= (j-i)&ix.mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
	ix.n--
}

// full reports whether the table has passed half load.
func (ix *lineIndex) full() bool { return 2*ix.n > len(ix.slots) }

// grow doubles the table and reinserts every entry.
//
// Allocates only on table growth, amortised over the stack's distinct lines.
func (ix *lineIndex) grow(nodes []node) {
	old := ix.slots
	ix.alloc(64 - ix.shift + 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := ix.home(nodes[v-1].line)
		for ix.slots[i] != 0 {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = v
		ix.n++
	}
}
