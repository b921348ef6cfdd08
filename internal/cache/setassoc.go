package cache

import "repro/internal/mem"

// SetAssoc is a set-associative cache with true LRU replacement
// (per-frame timestamps). With Geometry.Skewed it becomes a
// skewed-associative cache: each way indexes through SkewIndex, and the
// victim on insertion is the least-recently-used frame among the Ways
// candidate frames — the natural LRU generalisation for skewed caches.
type SetAssoc struct {
	geo    Geometry
	frames []frame
	flags  []uint8
	clock  uint64
	count  int

	// setMask and wayStride are derived from geo once at construction:
	// Lookup runs per simulated reference, and rederiving the mask and
	// frame stride in the loop costs measurable time there.
	setMask   uint64 // not checkpointed: derived from geo at construction
	wayStride int32  // not checkpointed: derived from geo at construction

	// cands is where Probe, Lookup and Insert on a skewed cache
	// evaluate a line's candidates before the one candidate walk
	// (ProbeAt, LookupAt); nil on a set-indexed cache.
	cands *Cands // not checkpointed: scratch, evaluated afresh by every skewed Probe and Lookup

	// probeVictim is the insertion victim chosen during the walk of the
	// most recent Probe miss; probeLine/probeOK guard its validity. They
	// let a miss be converted into an insertion (InsertProbed) without
	// re-running the indexing functions or a second candidate scan — for
	// the skewed L2 that halves the SkewIndex evaluations on the miss
	// path, which profiles as the single hottest computation of the
	// simulator.
	probeVictim int32    // not checkpointed: probe scratch, rebuilt by the next Probe
	probeLine   mem.Line // not checkpointed: probe scratch, rebuilt by the next Probe
	probeOK     bool     // not checkpointed: probe scratch, rebuilt by the next Probe
}

// frame is one line frame: its tag and its LRU stamp side by side, so a
// candidate walk loads one host cache line per frame (the walk is
// memory-bound: the L2's frames span 128 KB per cache). A frame is
// invalid exactly when its stamp is 0, since fill stamps with clock+1
// and nothing invalidates a frame; so the LRU victim rule "first
// invalid candidate, else the oldest" is "minimum stamp, lowest way on
// ties", and no valid bit is stored.
type frame struct {
	line  mem.Line
	stamp uint64
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
		frames:    make([]frame, n),
		flags:     make([]uint8, n),
		setMask:   uint64(1)<<geo.SetsLog2 - 1,
		wayStride: int32(1) << geo.SetsLog2,
	}
	if !c.indexed() {
		c.cands = NewCands(geo)
	}
	return c
}

// indexed reports whether line's candidate frames are set + w*wayStride:
// true unless the cache is skewed over more than one set (a single-set
// skewed cache indexes set 0 in every way).
func (c *SetAssoc) indexed() bool { return !c.geo.Skewed || c.geo.SetsLog2 == 0 }

// Lookup finds line without touching replacement state.
//
// A set-indexed cache strides a precomputed frame index over its ways;
// a skewed one evaluates the line's candidates and walks them with
// LookupAt. This is one of the hottest functions of the simulator.
func (c *SetAssoc) Lookup(line mem.Line) (Handle, bool) {
	if !c.indexed() {
		c.cands.Eval(line)
		return c.LookupAt(c.cands)
	}
	f := int32(uint64(line) & c.setMask)
	for w := 0; w < c.geo.Ways; w++ {
		if fr := &c.frames[f]; fr.line == line && fr.stamp != 0 {
			return Handle(f), true
		}
		f += c.wayStride
	}
	return -1, false
}

// LookupAt is Lookup of k's line over the candidates k holds, which
// must be evaluated in this cache's geometry.
func (c *SetAssoc) LookupAt(k *Cands) (Handle, bool) {
	for _, f := range k.frames {
		if fr := &c.frames[f]; fr.line == k.line && fr.stamp != 0 {
			return Handle(f), true
		}
	}
	return -1, false
}

// Probe is Lookup that makes a hit the most recently used line and, on
// a miss, selects the would-be insertion victim during the walk: the
// candidate with the minimum stamp, lowest way on ties (an invalid
// frame's stamp is 0). A following InsertProbed of the same line then
// fills that frame directly, with no second scan and no re-run of the
// indexing functions. The recorded victim stays valid until the next
// Probe on this cache; the caller must not mutate this cache between
// the Probe miss and its InsertProbed (interleaved operations on
// *other* caches are fine — see Machine.request). A skewed cache
// evaluates the line's candidates and walks them with ProbeAt.
func (c *SetAssoc) Probe(line mem.Line) (Handle, bool) {
	if !c.indexed() {
		c.cands.Eval(line)
		return c.ProbeAt(c.cands)
	}
	best := int32(-1)
	bestStamp := ^uint64(0)
	f := int32(uint64(line) & c.setMask)
	for w := 0; w < c.geo.Ways; w++ {
		fr := &c.frames[f]
		if fr.line == line && fr.stamp != 0 {
			c.clock++
			fr.stamp = c.clock
			return Handle(f), true
		}
		if fr.stamp < bestStamp {
			best, bestStamp = f, fr.stamp
		}
		f += c.wayStride
	}
	c.probeVictim, c.probeLine, c.probeOK = best, line, true
	return -1, false
}

// ProbeAt is Probe of k's line over the candidates k holds, which must
// be evaluated in this cache's geometry. Several caches of one geometry
// are probed for one line from one Cands.Eval.
func (c *SetAssoc) ProbeAt(k *Cands) (Handle, bool) {
	line := k.line
	best := int32(-1)
	bestStamp := ^uint64(0)
	for _, f := range k.frames {
		fr := &c.frames[f]
		if fr.line == line && fr.stamp != 0 {
			c.clock++
			fr.stamp = c.clock
			return Handle(f), true
		}
		if fr.stamp < bestStamp {
			best, bestStamp = f, fr.stamp
		}
	}
	c.probeVictim, c.probeLine, c.probeOK = best, line, true
	return -1, false
}

// InsertProbed inserts line into the victim frame recorded by an
// immediately preceding Probe miss of the same line. Without a matching
// pending probe it falls back to the self-indexing Insert, so callers
// may use it unconditionally after any miss. The Probe walk has already
// established that line is absent from every candidate frame (and the
// caller guarantees this cache was not mutated since), so the resident-
// line check lives only on the Insert fallback.
func (c *SetAssoc) InsertProbed(line mem.Line, flags uint8) (Handle, Victim) {
	if !c.probeOK || c.probeLine != line {
		return c.Insert(line, flags)
	}
	c.probeOK = false
	return c.fill(c.probeVictim, line, flags)
}

// Insert places line, which must not be present, as the most recently
// used line and returns the victim, if a valid line was evicted. The
// returned handle addresses the inserted line.
func (c *SetAssoc) Insert(line mem.Line, flags uint8) (Handle, Victim) {
	if _, ok := c.Probe(line); ok {
		//emlint:allowpanic documented precondition: callers Insert only after a miss on the same line
		panic("cache: Insert of resident line")
	}
	c.probeOK = false
	return c.fill(c.probeVictim, line, flags)
}

// fill writes line into frame best (the victim chosen by a Probe miss)
// and returns the displaced occupant, if any.
func (c *SetAssoc) fill(best int32, line mem.Line, flags uint8) (Handle, Victim) {
	var v Victim
	fr := &c.frames[best]
	if fr.stamp != 0 {
		v = Victim{Line: fr.line, Flags: c.flags[best], Valid: true}
	} else {
		c.count++
	}
	c.clock++
	*fr = frame{line: line, stamp: c.clock}
	c.flags[best] = flags
	return Handle(best), v
}

// Flags returns the flag bits of a resident line.
func (c *SetAssoc) Flags(h Handle) uint8 { return c.flags[h] }

// SetFlags overwrites the flag bits of a resident line.
func (c *SetAssoc) SetFlags(h Handle, f uint8) { c.flags[h] = f }

// Resident returns the number of valid lines.
func (c *SetAssoc) Resident() int { return c.count }
