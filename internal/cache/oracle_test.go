package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveLRU is the test oracle for SetAssoc, written from the
// definitions rather than from the frame arrays. Non-skewed, every set
// is a list of resident lines with the most recently used first: a hit
// moves the line to the front, and a fill into a full set evicts the
// back. Skewed, way w of a line sits at set SkewIndex(w, line): a fill
// takes the first empty candidate in way order, else the least recently
// used candidate.
type naiveLRU struct {
	geo   Geometry
	sets  [][]naiveEntry // non-skewed, MRU first
	ways  [][]naiveEntry // skewed, [way][set]
	clock uint64
}

type naiveEntry struct {
	line  mem.Line
	flags uint8
	used  uint64
	valid bool
}

func newNaiveLRU(geo Geometry) *naiveLRU {
	n := &naiveLRU{geo: geo}
	if geo.Skewed {
		for w := 0; w < geo.Ways; w++ {
			n.ways = append(n.ways, make([]naiveEntry, 1<<geo.SetsLog2))
		}
	} else {
		n.sets = make([][]naiveEntry, 1<<geo.SetsLog2)
	}
	return n
}

// find returns line's entry (nil when absent) without using it.
func (n *naiveLRU) find(line mem.Line) *naiveEntry {
	if n.geo.Skewed {
		for w := range n.ways {
			if e := &n.ways[w][SkewIndex(w, line, n.geo.SetsLog2)]; e.valid && e.line == line {
				return e
			}
		}
		return nil
	}
	s := n.sets[uint64(line)&(1<<n.geo.SetsLog2-1)]
	for i := range s {
		if s[i].line == line {
			return &s[i]
		}
	}
	return nil
}

// use is find that makes a hit the most recently used line.
func (n *naiveLRU) use(line mem.Line) *naiveEntry {
	if n.geo.Skewed {
		e := n.find(line)
		if e != nil {
			n.clock++
			e.used = n.clock
		}
		return e
	}
	si := uint64(line) & (1<<n.geo.SetsLog2 - 1)
	s := n.sets[si]
	for i := range s {
		if s[i].line == line {
			hit := s[i]
			copy(s[1:i+1], s[:i])
			s[0] = hit
			return &s[0]
		}
	}
	return nil
}

// fill inserts an absent line as the most recently used one.
func (n *naiveLRU) fill(line mem.Line, flags uint8) Victim {
	n.clock++
	in := naiveEntry{line: line, flags: flags, used: n.clock, valid: true}
	var out naiveEntry
	if n.geo.Skewed {
		var v *naiveEntry
		for w := range n.ways {
			e := &n.ways[w][SkewIndex(w, line, n.geo.SetsLog2)]
			if !e.valid {
				v = e
				break
			}
			if v == nil || e.used < v.used {
				v = e
			}
		}
		out, *v = *v, in
	} else {
		si := uint64(line) & (1<<n.geo.SetsLog2 - 1)
		s := n.sets[si]
		if len(s) == n.geo.Ways {
			out, s = s[len(s)-1], s[:len(s)-1]
		}
		n.sets[si] = append([]naiveEntry{in}, s...)
	}
	if !out.valid {
		return Victim{}
	}
	return Victim{Line: out.line, Flags: out.flags, Valid: true}
}

// drop removes line.
func (n *naiveLRU) drop(line mem.Line) {
	if n.geo.Skewed {
		if e := n.find(line); e != nil {
			e.valid = false
		}
		return
	}
	si := uint64(line) & (1<<n.geo.SetsLog2 - 1)
	s := n.sets[si]
	for i := range s {
		if s[i].line == line {
			n.sets[si] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// resident returns every resident line with its flags.
func (n *naiveLRU) resident() map[mem.Line]uint8 {
	out := map[mem.Line]uint8{}
	for _, s := range n.sets {
		for _, e := range s {
			out[e.line] = e.flags
		}
	}
	for _, w := range n.ways {
		for _, e := range w {
			if e.valid {
				out[e.line] = e.flags
			}
		}
	}
	return out
}

// oracleOp applies one operation to the cache and the oracle and
// reports the first disagreement. op selects Probe (+InsertProbed on a
// miss, the machine's L1/L2 pattern), Access (+Insert), Lookup with a
// flag update, or Invalidate.
func oracleOp(t *testing.T, c *SetAssoc, n *naiveLRU, op uint8, line mem.Line, flags uint8) {
	t.Helper()
	switch op % 4 {
	case 0, 1:
		var h Handle
		var ok bool
		if op%4 == 0 {
			h, ok = c.Probe(line)
		} else {
			h, ok = c.Access(line)
		}
		e := n.use(line)
		if ok != (e != nil) {
			t.Fatalf("line %#x: cache hit %v, oracle hit %v", line, ok, e != nil)
		}
		if ok {
			if c.Flags(h) != e.flags {
				t.Fatalf("line %#x: flags %#x, oracle %#x", line, c.Flags(h), e.flags)
			}
			return
		}
		var v Victim
		if op%4 == 0 {
			_, v = c.InsertProbed(line, flags)
		} else {
			_, v = c.Insert(line, flags)
		}
		if want := n.fill(line, flags); v != want {
			t.Fatalf("fill %#x: victim %+v, oracle %+v", line, v, want)
		}
	case 2:
		h, ok := c.Lookup(line)
		e := n.find(line)
		if ok != (e != nil) {
			t.Fatalf("lookup %#x: cache %v, oracle %v", line, ok, e != nil)
		}
		if ok {
			c.SetFlags(h, flags)
			e.flags = flags
		}
	case 3:
		f, ok := c.Invalidate(line)
		e := n.find(line)
		if ok != (e != nil) || (ok && f != e.flags) {
			t.Fatalf("invalidate %#x: cache (%#x, %v), oracle %+v", line, f, ok, e)
		}
		n.drop(line)
	}
}

// checkResident compares the full content of the cache and the oracle.
func checkResident(t *testing.T, c *SetAssoc, n *naiveLRU) {
	t.Helper()
	want := n.resident()
	if c.Resident() != len(want) {
		t.Fatalf("resident %d, oracle %d", c.Resident(), len(want))
	}
	st := c.State()
	for f, line := range st.Lines {
		if !st.Valid[f] {
			continue
		}
		if fl, ok := want[line]; !ok || fl != st.Flags[f] {
			t.Fatalf("frame %d holds %#x (flags %#x), oracle has (%#x, %v)", f, line, st.Flags[f], fl, ok)
		}
	}
}

// TestSetAssocMatchesOracle drives seeded streams through SetAssoc and
// the naive LRU model, skewed and not, at several shapes: streams over
// a few times the capacity, so hits, conflict misses and evictions all
// occur, with flag updates and invalidations mixed in.
func TestSetAssocMatchesOracle(t *testing.T) {
	geos := []Geometry{
		{Ways: 1, SetsLog2: 4},
		{Ways: 4, SetsLog2: 0},
		{Ways: 4, SetsLog2: 0, Skewed: true},
		{Ways: 4, SetsLog2: 6},
		{Ways: 4, SetsLog2: 6, Skewed: true},
		{Ways: 3, SetsLog2: 2, Skewed: true},
		{Ways: 8, SetsLog2: 5, Skewed: true},
		GeometryFor(16<<10, 6, 4, false),
		GeometryFor(512<<10, 6, 4, true),
	}
	for _, geo := range geos {
		for seed := uint64(1); seed <= 3; seed++ {
			c, n := NewSetAssoc(geo), newNaiveLRU(geo)
			rng := trace.NewRNG(seed)
			span := uint64(3 * geo.Frames())
			for i := 0; i < 60_000; i++ {
				line := mem.Line(rng.Uint64n(span))
				if rng.Uint64n(8) == 0 {
					line += mem.Line(rng.Uint64() >> 8) // a far line: high address bits
				}
				op := uint8(0)
				switch r := rng.Uint64n(16); {
				case r < 6:
					op = 1
				case r < 8:
					op = 2
				case r == 8:
					op = 3
				}
				oracleOp(t, c, n, op, line, uint8(rng.Uint64n(4)))
				if i%5000 == 0 {
					checkResident(t, c, n)
				}
			}
			checkResident(t, c, n)
		}
	}
}

// FuzzSetAssoc runs arbitrary operation streams against the naive LRU
// oracle. The first byte picks a small geometry (so conflicts are
// frequent); every following 3 bytes are one operation: opcode and
// flags, then a 16-bit line.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 1, 0, 0})
	f.Add([]byte{5, 1, 0, 7, 0, 0, 7, 3, 0, 7, 2, 3, 7})
	seed := make([]byte, 1, 301)
	seed[0] = 13
	for i := 0; i < 100; i++ {
		seed = binary.LittleEndian.AppendUint16(append(seed, byte(i*7)), uint16(i*37%64))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel := data[0]
		geo := Geometry{Ways: 1 + int(sel&3), SetsLog2: uint(sel>>2) & 3, Skewed: sel&16 != 0}
		c, n := NewSetAssoc(geo), newNaiveLRU(geo)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			line := mem.Line(binary.LittleEndian.Uint16(ops[1:3]))
			oracleOp(t, c, n, ops[0]&3, line, ops[0]>>2&3)
		}
		checkResident(t, c, n)
	})
}
