package affinity

import "repro/internal/mem"

// Table stores the postponed affinity value Oe for lines that are outside
// the R-window. The paper calls this storage the "affinity cache" (§3.2).
// The Figure 3/4/5 experiments assume an unlimited table; the Table 2
// experiment uses an 8k-entry 4-way skewed-associative cache (§4.2) —
// see Cache in cache.go.
type Table interface {
	// Lookup returns the stored Oe for line, or ok=false on a miss.
	Lookup(line mem.Line) (oe int64, ok bool)
	// Store records Oe for line, possibly evicting another entry.
	Store(line mem.Line, oe int64)
}

// Unbounded is a Table with no hardware structure, used by the paper's
// §4.1 experiments ("we assume an unlimited affinity cache size"). A
// positive entry limit turns it into a FIFO-evicting bounded table so a
// hostile or enormous trace degrades the simulation (entries dropped,
// counted in Dropped) instead of exhausting host memory. Eviction is
// strictly insertion-ordered, keeping runs deterministic.
//
// Storage is an open-addressed hash table (linear probing, backward-
// shift deletion) rather than a Go map: Lookup/Store is the innermost
// operation of the affinity mechanism, and open addressing removes the
// map's per-operation overhead (bucket chaining, interface-free but
// hashed key copies) and all steady-state allocations — once the live
// working set stops growing, Store updates in place and eviction swaps
// entries inside preallocated arrays.
type Unbounded struct {
	// Parallel slot arrays. len(keys) is always zero or a power of two;
	// used[i] marks live slots (line 0 is a valid key, so occupancy
	// cannot be encoded in keys itself).
	keys []mem.Line
	vals []int64
	used []bool
	n    int

	limit int
	// fifo is a ring buffer of live keys in insertion order, maintained
	// only when limit > 0. It doubles while growing and never exceeds
	// limit slots, so at the cap eviction runs allocation-free.
	fifo   []mem.Line
	fhead  int
	fcount int

	// Dropped counts entries evicted to stay under the limit.
	Dropped uint64

	// Probes mirror hit/miss/eviction accounting into an optional
	// telemetry registry (the zero value is a no-op). State capture and
	// restore go through the non-counting find, so checkpointing never
	// perturbs them.
	// Not checkpointed: observational handles; counter values live in the owning telemetry registry.
	Probes TableProbes
}

// NewUnbounded returns an empty unlimited table.
func NewUnbounded() *Unbounded { return &Unbounded{} }

// NewUnboundedLimit returns a table holding at most limit entries,
// evicting the oldest insertion when full. limit <= 0 means unlimited.
func NewUnboundedLimit(limit int) *Unbounded {
	u := NewUnbounded()
	if limit > 0 {
		u.limit = limit
	}
	return u
}

// fibMul is the 64-bit golden-ratio multiplier (2^64/φ, odd), the
// standard multiplicative hash: line*fibMul mod 2^k is a bijection on
// the low k bits, so sequential line numbers — the dominant pattern
// after L1 filtering — spread across slots instead of clustering.
const fibMul = 0x9E3779B97F4A7C15

// minTableCap is the initial slot count of a non-empty table.
const minTableCap = 64

// homeSlot returns line's preferred slot for the current capacity.
func (u *Unbounded) homeSlot(line mem.Line) uint64 {
	return (uint64(line) * fibMul) & uint64(len(u.keys)-1)
}

// Lookup implements Table. It is the innermost read of the affinity
// mechanism, once per L1-filtered reference.
func (u *Unbounded) Lookup(line mem.Line) (int64, bool) {
	oe, ok := u.find(line)
	if ok {
		u.Probes.Hits.Inc()
	} else {
		u.Probes.Misses.Inc()
	}
	return oe, ok
}

// find is Lookup without probe accounting, for internal use on paths
// (state capture, restore-time duplicate checks) that must not perturb
// telemetry.
func (u *Unbounded) find(line mem.Line) (int64, bool) {
	if u.n == 0 {
		return 0, false
	}
	mask := uint64(len(u.keys) - 1)
	for i := u.homeSlot(line); u.used[i]; i = (i + 1) & mask {
		if u.keys[i] == line {
			return u.vals[i], true
		}
	}
	return 0, false
}

// Store implements Table. Steady state updates in place or swaps inside
// preallocated arrays; growth is confined to grow and fifoPush.
func (u *Unbounded) Store(line mem.Line, oe int64) {
	if len(u.keys) != 0 {
		mask := uint64(len(u.keys) - 1)
		for i := u.homeSlot(line); u.used[i]; i = (i + 1) & mask {
			if u.keys[i] == line {
				u.vals[i] = oe
				return
			}
		}
	}
	// New insertion: make room first (eviction at the cap, growth at
	// 3/4 load), then claim the first free slot of line's probe chain.
	if u.limit > 0 && u.n >= u.limit {
		u.evictOldest()
	} else if (u.n+1)*4 > len(u.keys)*3 {
		newCap := minTableCap
		if len(u.keys) > 0 {
			newCap = len(u.keys) * 2
		}
		u.grow(newCap)
	}
	mask := uint64(len(u.keys) - 1)
	i := u.homeSlot(line)
	for u.used[i] {
		i = (i + 1) & mask
	}
	u.keys[i] = line
	u.vals[i] = oe
	u.used[i] = true
	u.n++
	if u.limit > 0 {
		u.fifoPush(line)
	}
}

// grow rehashes every live entry into arrays of newCap slots. Growth
// doubles, so its allocations amortise to O(1) per insertion.
func (u *Unbounded) grow(newCap int) {
	oldKeys, oldVals, oldUsed := u.keys, u.vals, u.used
	u.keys = make([]mem.Line, newCap)
	u.vals = make([]int64, newCap)
	u.used = make([]bool, newCap)
	mask := uint64(newCap - 1)
	for s, ok := range oldUsed {
		if !ok {
			continue
		}
		i := u.homeSlot(oldKeys[s])
		for u.used[i] {
			i = (i + 1) & mask
		}
		u.keys[i] = oldKeys[s]
		u.vals[i] = oldVals[s]
		u.used[i] = true
	}
}

// evictOldest removes the least recently inserted entry (FIFO).
func (u *Unbounded) evictOldest() {
	victim := u.fifo[u.fhead]
	u.fhead++
	if u.fhead == len(u.fifo) {
		u.fhead = 0
	}
	u.fcount--
	u.delete(victim)
	u.Dropped++
	u.Probes.Evictions.Inc()
}

// delete removes line from the slot arrays with backward-shift
// deletion: every entry displaced past the freed slot by linear probing
// is moved back, so no tombstones accumulate and probe chains stay
// exactly as long as an insertion-only history would make them.
func (u *Unbounded) delete(line mem.Line) {
	mask := uint64(len(u.keys) - 1)
	i := u.homeSlot(line)
	for {
		if !u.used[i] {
			return // not present; cannot happen for fifo-tracked keys
		}
		if u.keys[i] == line {
			break
		}
		i = (i + 1) & mask
	}
	u.n--
	j := i
	for {
		u.used[i] = false
		for {
			j = (j + 1) & mask
			if !u.used[j] {
				return
			}
			// Entry at j may move into the hole at i only if its home
			// slot is cyclically outside (i, j] — i.e. probing from its
			// home would have reached i before j.
			home := u.homeSlot(u.keys[j])
			if (j-home)&mask >= (j-i)&mask {
				u.keys[i] = u.keys[j]
				u.vals[i] = u.vals[j]
				u.used[i] = true
				i = j
				break
			}
		}
	}
}

// fifoPush appends line to the insertion-order ring, doubling the ring
// (up to limit slots) while the table is still filling; at the cap it
// runs allocation-free.
func (u *Unbounded) fifoPush(line mem.Line) {
	if u.fcount == len(u.fifo) {
		newCap := 16
		if len(u.fifo) > 0 {
			newCap = len(u.fifo) * 2
		}
		if newCap > u.limit {
			newCap = u.limit
		}
		ring := make([]mem.Line, newCap)
		for k := 0; k < u.fcount; k++ {
			ring[k] = u.fifo[(u.fhead+k)%len(u.fifo)]
		}
		u.fifo = ring
		u.fhead = 0
	}
	u.fifo[(u.fhead+u.fcount)%len(u.fifo)] = line
	u.fcount++
}

// Range calls fn for every live entry until fn returns false.
// Iteration order is unspecified (slot order).
func (u *Unbounded) Range(fn func(line mem.Line, oe int64) bool) {
	for i, ok := range u.used {
		if !ok {
			continue
		}
		if !fn(u.keys[i], u.vals[i]) {
			return
		}
	}
}

// entriesInOrder returns the live entries in FIFO insertion order.
// Only meaningful when the table is limited (the ring exists).
func (u *Unbounded) entriesInOrder() []TableEntry {
	out := make([]TableEntry, 0, u.fcount)
	for k := 0; k < u.fcount; k++ {
		line := u.fifo[(u.fhead+k)%len(u.fifo)]
		oe, _ := u.find(line)
		out = append(out, TableEntry{Line: line, Oe: oe})
	}
	return out
}

// reset empties the table, keeping the limit regime.
func (u *Unbounded) reset(capacityHint int) {
	u.keys, u.vals, u.used = nil, nil, nil
	u.n = 0
	u.fifo, u.fhead, u.fcount = nil, 0, 0
	if capacityHint > 0 {
		c := minTableCap
		for c*3 < capacityHint*4 {
			c *= 2
		}
		u.grow(c)
	}
}

// Len returns the number of lines tracked.
func (u *Unbounded) Len() int { return u.n }

// Limit returns the configured entry limit (0 = unlimited).
func (u *Unbounded) Limit() int { return u.limit }
