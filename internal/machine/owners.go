package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
)

// owners is the modified-owner index: line → the one core whose L2
// holds the line with its modified bit set. §2.1's discipline keeps at
// most one modified copy of a line (a write resets the bit on every
// other copy, a forward resets it on the source), so the index replaces
// the walks over every remote L2 that fetch and markModified would
// otherwise run with one probe. It lives beside the L2 arrays and is
// aliased with them by Cluster; the machine keeps it on every modify,
// forward and modified-victim eviction, and Restore rebuilds it.
//
// The table is open addressing with linear probing and backward-shift
// deletion, so it carries no tombstones and its size follows the live
// modified set. Each 8-byte slot packs line<<obits | owner+1 (0 is an
// empty slot); Config.Validate guarantees the packing is lossless.
type owners struct {
	slots []uint64
	mask  uint64
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	obits uint // bits of the owner field
	n     int
}

// ownerBits is the width of a slot's owner field for a cores-core chip.
func ownerBits(cores int) uint { return uint(bits.Len(uint(cores))) }

// ownersInitialLog2 sizes a fresh index at 256 slots (2 KB); it doubles
// whenever it passes half full.
const ownersInitialLog2 = 8

func newOwners(cores int) *owners {
	o := &owners{obits: ownerBits(cores)}
	o.alloc(ownersInitialLog2)
	return o
}

// alloc replaces the table with an empty one of 2^log2 slots.
//
// Allocates only on table growth, amortised over the modified set's growth.
func (o *owners) alloc(log2 uint) {
	o.slots = make([]uint64, 1<<log2)
	o.mask = 1<<log2 - 1
	o.shift = 64 - log2
	o.n = 0
}

// home is line's first probe slot.
func (o *owners) home(line mem.Line) uint64 {
	return (uint64(line) * 0x9e3779b97f4a7c15) >> o.shift
}

// find returns the slot index holding line and whether it was found;
// on a miss the index is the empty slot that ends the probe run.
func (o *owners) find(line mem.Line) (uint64, bool) {
	key := uint64(line)
	for i := o.home(line); ; i = (i + 1) & o.mask {
		s := o.slots[i]
		if s == 0 {
			return i, false
		}
		if s>>o.obits == key {
			return i, true
		}
	}
}

// owner decodes the owner core of occupied slot i.
func (o *owners) owner(i uint64) int { return int(o.slots[i]&(1<<o.obits-1)) - 1 }

// put makes core line's modified owner and returns the previous owner.
func (o *owners) put(line mem.Line, core int) (prev int, had bool) {
	i, ok := o.find(line)
	if ok {
		prev, had = o.owner(i), true
	} else {
		o.n++
	}
	o.slots[i] = uint64(line)<<o.obits | uint64(core+1)
	if 2*o.n > len(o.slots) {
		o.grow()
	}
	return prev, had
}

// take removes line from the index and returns its owner.
func (o *owners) take(line mem.Line) (int, bool) {
	i, ok := o.find(line)
	if !ok {
		return 0, false
	}
	core := o.owner(i)
	// Backward-shift deletion: pull each later entry of the run into
	// the hole unless its home lies cyclically in (hole, entry].
	for j := (i + 1) & o.mask; o.slots[j] != 0; j = (j + 1) & o.mask {
		h := o.home(mem.Line(o.slots[j] >> o.obits))
		if (j-h)&o.mask >= (j-i)&o.mask {
			o.slots[i] = o.slots[j]
			i = j
		}
	}
	o.slots[i] = 0
	o.n--
	return core, true
}

// grow doubles the table and reinserts every entry.
//
// Allocates only on table growth, amortised over the modified set's growth.
func (o *owners) grow() {
	old := o.slots
	o.alloc(64 - o.shift + 1)
	for _, s := range old {
		if s != 0 {
			i, _ := o.find(mem.Line(s >> o.obits))
			o.slots[i] = s
			o.n++
		}
	}
}

// rebuild resets the index to the modified lines of the given L2
// states, rejecting a state that holds one line modified in two L2s or
// a line too wide for the slot packing.
func (o *owners) rebuild(l2 []cache.SetAssocState) error {
	o.alloc(ownersInitialLog2)
	limit := mem.Line(1) << (64 - o.obits)
	for c, st := range l2 {
		for f, line := range st.Lines {
			if !st.Valid[f] || st.Flags[f]&cache.FlagModified == 0 {
				continue
			}
			if line >= limit {
				return fmt.Errorf("machine: L2[%d] line %#x exceeds the address range", c, line)
			}
			if prev, had := o.put(line, c); had {
				return fmt.Errorf("machine: line %#x is modified in L2[%d] and L2[%d]", line, prev, c)
			}
		}
	}
	return nil
}
