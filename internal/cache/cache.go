// Package cache provides the two cache models the reproduction needs.
//
// SetAssoc is set-associative with true LRU, or 4-way
// skewed-associative (the paper's L2 and affinity-cache organisation,
// after Bodin & Seznec). The machine model probes, fills and flags it
// for its L1s and L2s, and checkpoints it through
// State/SetState.
//
// FullyAssoc is fully-associative LRU: the 16-Kbyte L1 filters of the
// paper's §4.1 experiments, where a reference either hits or fills.
//
// The models track presence and, in SetAssoc, per-line flag bits — no
// data. Write policies (write-through, write-back, write-allocate)
// belong to the owner (the machine model); a cache here is pure storage
// with a replacement policy, which is what trace-driven miss counting
// needs.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Flag bits stored per line. The machine model uses Modified for the
// paper's migration-mode coherence (§2.1: at most one copy of a line is
// marked modified; inactive copies stay valid with the bit reset).
const (
	// FlagModified marks a dirty line (write-back caches).
	FlagModified uint8 = 1 << iota
)

// Handle identifies a resident line inside one SetAssoc cache. A
// handle is invalidated by any Insert that fills its frame.
type Handle int32

// Victim describes a line evicted by a SetAssoc fill.
type Victim struct {
	Line  mem.Line
	Flags uint8
	Valid bool
}

// Geometry describes a set-associative organisation.
type Geometry struct {
	// Ways is the associativity.
	Ways int
	// SetsLog2 is log2 of the number of sets per way.
	SetsLog2 uint
	// Skewed selects skewed-associative indexing: each way indexes with
	// a different hash of the line address.
	Skewed bool
}

// Frames returns the total number of line frames.
func (g Geometry) Frames() int { return g.Ways << g.SetsLog2 }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Ways < 1 || g.Ways > 64 {
		return fmt.Errorf("cache: ways %d out of [1,64]", g.Ways)
	}
	if g.SetsLog2 > 28 {
		return fmt.Errorf("cache: setsLog2 %d too large", g.SetsLog2)
	}
	return nil
}

// GeometryFor computes a geometry from a byte capacity, line size and
// associativity: capacity/(lineSize*ways) sets. It panics unless the set
// count is a power of two >= 1.
func GeometryFor(capacityBytes int, lineShift uint, ways int, skewed bool) Geometry {
	lines := capacityBytes >> lineShift
	if lines <= 0 || lines%ways != 0 {
		//emlint:allowpanic geometries are built from compile-time paper constants; front ends validate user capacities
		panic(fmt.Sprintf("cache: capacity %dB incompatible with %d ways of %dB lines", capacityBytes, ways, 1<<lineShift))
	}
	sets := lines / ways
	log2 := uint(0)
	for 1<<log2 < sets {
		log2++
	}
	if 1<<log2 != sets {
		//emlint:allowpanic geometries are built from compile-time paper constants; front ends validate user capacities
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return Geometry{Ways: ways, SetsLog2: log2, Skewed: skewed}
}
