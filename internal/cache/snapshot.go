package cache

import (
	"fmt"

	"repro/internal/mem"
)

// SetAssocState is the serialisable state of a SetAssoc cache, used by
// the machine checkpoint/resume path. All fields are exported so the
// state survives gob encoding; Geo travels along so a restore into a
// differently-shaped cache is rejected instead of corrupting memory.
// The per-frame columns are the checkpoint format; Valid is redundant
// with Stamp (a frame is valid exactly when its stamp is nonzero) and
// SetState checks that it agrees.
type SetAssocState struct {
	Geo   Geometry
	Lines []mem.Line
	Valid []bool
	Flags []uint8
	Stamp []uint64
	Clock uint64
	Count int
}

// State returns a deep copy of the cache's current state.
func (c *SetAssoc) State() SetAssocState {
	n := len(c.frames)
	s := SetAssocState{
		Geo:   c.geo,
		Lines: make([]mem.Line, n),
		Valid: make([]bool, n),
		Flags: append([]uint8(nil), c.flags...),
		Stamp: make([]uint64, n),
		Clock: c.clock,
		Count: c.count,
	}
	for f, fr := range c.frames {
		s.Lines[f], s.Valid[f], s.Stamp[f] = fr.line, fr.stamp != 0, fr.stamp
	}
	return s
}

// SetState restores a previously captured state. The receiving cache
// must have the same geometry as the one that produced the state, and
// the state must be one a cache can reach: each frame valid exactly
// when its stamp is nonzero, no stamp past the clock, and a resident
// count equal to the valid frames. A rejected state leaves the cache
// unchanged.
func (c *SetAssoc) SetState(s SetAssocState) error {
	if s.Geo != c.geo {
		return fmt.Errorf("cache: state geometry %+v does not match cache geometry %+v", s.Geo, c.geo)
	}
	n := c.geo.Frames()
	if len(s.Lines) != n || len(s.Valid) != n || len(s.Flags) != n || len(s.Stamp) != n {
		return fmt.Errorf("cache: state arrays sized %d/%d/%d/%d, want %d frames",
			len(s.Lines), len(s.Valid), len(s.Flags), len(s.Stamp), n)
	}
	valid := 0
	for f, st := range s.Stamp {
		if s.Valid[f] != (st != 0) {
			return fmt.Errorf("cache: state frame %d valid %v with stamp %d", f, s.Valid[f], st)
		}
		if st > s.Clock {
			return fmt.Errorf("cache: state frame %d stamp %d past clock %d", f, st, s.Clock)
		}
		if s.Valid[f] {
			valid++
		}
	}
	if s.Count != valid {
		return fmt.Errorf("cache: state resident count %d, but %d frames are valid", s.Count, valid)
	}
	for f := range c.frames {
		c.frames[f] = frame{line: s.Lines[f], stamp: s.Stamp[f]}
	}
	copy(c.flags, s.Flags)
	c.clock = s.Clock
	c.count = s.Count
	// A pending Probe describes the pre-restore content; drop it so a
	// stale InsertProbed cannot pick a victim against the old stamps.
	c.probeOK = false
	return nil
}
