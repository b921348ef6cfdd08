// Package sim provides the simulated execution environment workloads run
// in: a bump-allocated 64-bit address space (objects get stable simulated
// addresses while their values live in ordinary Go memory) and a CPU
// front-end that converts executed-instruction counts into instruction-
// fetch line references and data operations into load/store references.
//
// This replaces the paper's SimpleScalar/PISA functional simulator: the
// paper's experiments consume only the memory reference stream, so a
// faithful address trace — produced by real algorithms touching
// simulated addresses — preserves everything the evaluation measures.
package sim

import (
	"fmt"

	"repro/internal/mem"
)

// Region names a contiguous arena of the simulated address space.
type Region struct {
	Name  string
	Base  mem.Addr
	Limit mem.Addr // first byte beyond the region
	next  mem.Addr
}

// Space is a simulated 64-bit address space with named bump-allocated
// regions. The conventional layout places code low, then globals, heap,
// and stack in distinct gigabyte-aligned arenas, so traces from distinct
// structures never alias.
type Space struct {
	regions  []*Region
	nextBase mem.Addr
}

// NewSpace returns an empty address space. Region bases start at 4GB and
// are 4GB-aligned.
func NewSpace() *Space {
	return &Space{nextBase: 4 << 30}
}

// AddRegion creates a named region of the given byte capacity.
func (s *Space) AddRegion(name string, capacity uint64) *Region {
	r := &Region{
		Name:  name,
		Base:  s.nextBase,
		Limit: s.nextBase + mem.Addr(capacity),
	}
	r.next = r.Base
	s.regions = append(s.regions, r)
	// advance, keeping 4GB alignment
	span := (mem.Addr(capacity) + (4<<30 - 1)) &^ (4<<30 - 1)
	s.nextBase += span
	return r
}

// Alloc reserves size bytes with the given alignment (power of two) and
// returns the simulated address. It panics when the region overflows —
// size the region for the workload.
func (r *Region) Alloc(size, align uint64) mem.Addr {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		//emlint:allowpanic alignments are compile-time workload constants
		panic("sim: alignment must be a power of two")
	}
	a := (uint64(r.next) + align - 1) &^ (align - 1)
	end := a + size
	if mem.Addr(end) > r.Limit {
		//emlint:allowpanic documented contract: regions are sized for the workload; overflow is a workload bug
		panic(fmt.Sprintf("sim: region %q exhausted (%d bytes)", r.Name, r.Limit-r.Base))
	}
	r.next = mem.Addr(end)
	return mem.Addr(a)
}

// Func describes a simulated code object: a function (or basic-block
// cluster) occupying Size bytes starting at Entry. The CPU walks its
// lines as instructions execute; pos persists across calls so repeated
// short calls cover the whole body over time (modelling the different
// control paths successive invocations take), rather than re-executing
// only the entry line.
type Func struct {
	Name  string
	Entry mem.Addr
	Size  uint64
	pos   uint64 // resume offset, maintained by CPU
}

// Code is a convenience region for allocating Funcs.
type Code struct {
	region *Region
}

// NewCode creates a code arena inside the space.
func (s *Space) NewCode(capacity uint64) *Code {
	return &Code{region: s.AddRegion("code", capacity)}
}

// Func allocates a function of the given byte size (≈ 4 bytes per
// instruction), line-aligned so small functions do not share lines.
func (c *Code) Func(name string, size uint64) *Func {
	if size == 0 {
		size = mem.DefaultLineSize
	}
	return &Func{Name: name, Entry: c.region.Alloc(size, mem.DefaultLineSize), Size: size}
}

// Lines returns how many cache lines the function spans (64-byte lines).
func (f *Func) Lines() uint64 {
	return (size64(f) + mem.DefaultLineSize - 1) / mem.DefaultLineSize
}

func size64(f *Func) uint64 { return f.Size }
