package cache

import "repro/internal/mem"

// SetAssoc is a set-associative cache with true LRU replacement
// (per-frame timestamps). With Geometry.Skewed it becomes a
// skewed-associative cache: each way indexes through SkewIndex, and the
// victim on insertion is the least-recently-used frame among the Ways
// candidate frames — the natural LRU generalisation for skewed caches.
type SetAssoc struct {
	geo   Geometry
	lines []mem.Line
	valid []bool
	flags []uint8
	stamp []uint64
	clock uint64
	count int

	// setMask and wayStride are derived from geo once at construction:
	// Lookup runs per simulated reference, and rederiving the mask and
	// frame stride in the loop costs measurable time there.
	setMask   uint64 //emlint:nosnapshot derived from geo at construction
	wayStride int32  //emlint:nosnapshot derived from geo at construction

	// skew precomputes the per-way constants of SkewIndex, so the hot
	// walks share the per-line decomposition.
	skew Skew //emlint:nosnapshot derived from geo at construction

	// probeVictim is the insertion victim chosen during the walk of the
	// most recent Probe miss; probeLine/probeOK guard its validity. They
	// let a miss be converted into an insertion (InsertProbed) without
	// re-running the indexing functions or a second candidate scan — for
	// the skewed L2 that halves the SkewIndex evaluations on the miss
	// path, which profiles as the single hottest computation of the
	// simulator.
	probeVictim int32    //emlint:nosnapshot probe scratch, rebuilt by the next Probe
	probeLine   mem.Line //emlint:nosnapshot probe scratch, rebuilt by the next Probe
	probeOK     bool     //emlint:nosnapshot probe scratch, rebuilt by the next Probe
}

// NewSetAssoc builds a set-associative cache with the given geometry.
func NewSetAssoc(geo Geometry) *SetAssoc {
	if err := geo.Validate(); err != nil {
		//emlint:allowpanic geometries are Validated by machine.Config.Validate and built from paper constants
		panic(err)
	}
	n := geo.Frames()
	c := &SetAssoc{
		geo:       geo,
		lines:     make([]mem.Line, n),
		valid:     make([]bool, n),
		flags:     make([]uint8, n),
		stamp:     make([]uint64, n),
		setMask:   uint64(1)<<geo.SetsLog2 - 1,
		wayStride: int32(1) << geo.SetsLog2,
	}
	if geo.Skewed && geo.SetsLog2 > 0 {
		c.skew = NewSkew(geo.Ways, geo.SetsLog2)
	}
	return c
}

// frameOf returns the frame index of way w for line.
func (c *SetAssoc) frameOf(w int, line mem.Line) int32 {
	var set uint32
	if c.geo.Skewed {
		set = SkewIndex(w, line, c.geo.SetsLog2)
	} else {
		set = uint32(uint64(line) & c.setMask)
	}
	return int32(w)<<c.geo.SetsLog2 + int32(set)
}

// Lookup finds line without touching replacement state.
//
// The two indexing schemes are split into separate loops: the
// non-skewed walk strides a precomputed frame index instead of calling
// frameOf, and the skewed walk keeps the SkewIndex call but avoids the
// per-way branch. This is the single hottest function of the simulator
// (every Access probes up to three cache levels through it).
//
//emlint:hotpath
func (c *SetAssoc) Lookup(line mem.Line) (Handle, bool) {
	if !c.geo.Skewed {
		f := int32(uint64(line) & c.setMask)
		for w := 0; w < c.geo.Ways; w++ {
			if c.valid[f] && c.lines[f] == line {
				return Handle(f), true
			}
			f += c.wayStride
		}
		return -1, false
	}
	sl := c.geo.SetsLog2
	if sl == 0 {
		for w := 0; w < c.geo.Ways; w++ {
			if c.valid[w] && c.lines[w] == line {
				return Handle(w), true
			}
		}
		return -1, false
	}
	a1, a2, hiK := c.skew.split(line)
	for w := 0; w < c.geo.Ways; w++ {
		f := int32(w)<<sl + int32(c.skew.set(w, a1, a2, hiK))
		if c.valid[f] && c.lines[f] == line {
			return Handle(f), true
		}
	}
	return -1, false
}

// Probe is Access (lookup + LRU touch on hit) that additionally selects
// the would-be insertion victim during the walk on a miss — the first
// invalid candidate frame, else the least-recently-used candidate,
// exactly the choice Insert would make. A following InsertProbed of the
// same line then fills that frame directly, with no second scan and no
// re-run of the indexing functions. The recorded victim stays valid
// until the next Probe on this cache; the caller must not mutate this
// cache between the Probe miss and its InsertProbed (interleaved
// operations on *other* caches are fine — see Machine.request).
//
//emlint:hotpath
func (c *SetAssoc) Probe(line mem.Line) (Handle, bool) {
	best := int32(-1)
	bestStamp := ^uint64(0)
	haveInvalid := false
	if !c.geo.Skewed {
		f := int32(uint64(line) & c.setMask)
		for w := 0; w < c.geo.Ways; w++ {
			if c.valid[f] {
				if c.lines[f] == line {
					c.clock++
					c.stamp[f] = c.clock
					return Handle(f), true
				}
				if !haveInvalid && c.stamp[f] < bestStamp {
					best = f
					bestStamp = c.stamp[f]
				}
			} else if !haveInvalid {
				best = f
				haveInvalid = true
			}
			f += c.wayStride
		}
	} else if sl := c.geo.SetsLog2; sl > 0 {
		a1, a2, hiK := c.skew.split(line)
		for w := 0; w < c.geo.Ways; w++ {
			f := int32(w)<<sl + int32(c.skew.set(w, a1, a2, hiK))
			if c.valid[f] {
				if c.lines[f] == line {
					c.clock++
					c.stamp[f] = c.clock
					return Handle(f), true
				}
				if !haveInvalid && c.stamp[f] < bestStamp {
					best = f
					bestStamp = c.stamp[f]
				}
			} else if !haveInvalid {
				best = f
				haveInvalid = true
			}
		}
	} else {
		// Degenerate single-set skewed cache: every way indexes set 0.
		for w := 0; w < c.geo.Ways; w++ {
			f := int32(w)
			if c.valid[f] {
				if c.lines[f] == line {
					c.clock++
					c.stamp[f] = c.clock
					return Handle(f), true
				}
				if !haveInvalid && c.stamp[f] < bestStamp {
					best = f
					bestStamp = c.stamp[f]
				}
			} else if !haveInvalid {
				best = f
				haveInvalid = true
			}
		}
	}
	c.probeVictim = best
	c.probeLine = line
	c.probeOK = true
	return -1, false
}

// InsertProbed inserts line into the victim frame recorded by an
// immediately preceding Probe miss of the same line. Without a matching
// pending probe it falls back to the self-indexing Insert, so callers
// may use it unconditionally after any miss. The Probe walk has already
// established that line is absent from every candidate frame (and the
// caller guarantees this cache was not mutated since), so the resident-
// line check lives only on the Insert fallback.
//
//emlint:hotpath
func (c *SetAssoc) InsertProbed(line mem.Line, flags uint8) (Handle, Victim) {
	if !c.probeOK || c.probeLine != line {
		return c.Insert(line, flags)
	}
	c.probeOK = false
	return c.fill(c.probeVictim, line, flags)
}

// Access is Lookup that makes a hit the most recently used line.
func (c *SetAssoc) Access(line mem.Line) (Handle, bool) {
	h, ok := c.Lookup(line)
	if ok {
		c.clock++
		c.stamp[h] = c.clock
	}
	return h, ok
}

// Insert places line, which must not be present, as the most recently
// used line and returns the victim, if a valid line was evicted. The
// returned handle addresses the inserted line.
func (c *SetAssoc) Insert(line mem.Line, flags uint8) (Handle, Victim) {
	// Choose the victim frame: an invalid candidate if any, else the
	// LRU among the Ways candidates.
	best := int32(-1)
	for w := 0; w < c.geo.Ways; w++ {
		f := c.frameOf(w, line)
		if c.valid[f] && c.lines[f] == line {
			//emlint:allowpanic documented precondition: callers Insert only after a miss on the same line
			panic("cache: Insert of resident line")
		}
		if !c.valid[f] {
			if best == -1 || c.valid[best] {
				best = f
			}
			continue
		}
		if best == -1 || (c.valid[best] && c.stamp[f] < c.stamp[best]) {
			best = f
		}
	}
	return c.fill(best, line, flags)
}

// fill writes line into frame best (the victim chosen by Insert or
// InsertProbed) and returns the displaced occupant, if any.
//
//emlint:hotpath
func (c *SetAssoc) fill(best int32, line mem.Line, flags uint8) (Handle, Victim) {
	var v Victim
	if c.valid[best] {
		v = Victim{Line: c.lines[best], Flags: c.flags[best], Valid: true}
	} else {
		c.count++
	}
	c.lines[best] = line
	c.valid[best] = true
	c.flags[best] = flags
	c.clock++
	c.stamp[best] = c.clock
	return Handle(best), v
}

// Flags returns the flag bits of a resident line.
func (c *SetAssoc) Flags(h Handle) uint8 { return c.flags[h] }

// SetFlags overwrites the flag bits of a resident line.
func (c *SetAssoc) SetFlags(h Handle, f uint8) { c.flags[h] = f }

// Resident returns the number of valid lines.
func (c *SetAssoc) Resident() int { return c.count }
