// Package mem defines the foundation types shared by every layer of the
// simulator: byte addresses, cache-line geometry, access kinds, and the
// sink/source interfaces through which workloads feed reference streams
// into cache models and migration controllers.
//
// Everything in this repository works on 64-bit byte addresses. A cache
// line is identified by its Line value (the address shifted right by the
// line-size log2). The paper (Michaud, HPCA 2004) uses 64-byte lines
// throughout; DefaultLineSize reflects that, but all models take the line
// geometry as a parameter so line-size sensitivity experiments (§4.1 of
// the paper) are possible.
package mem

import "fmt"

// Addr is a byte address in the simulated 64-bit address space.
type Addr uint64

// Line identifies a cache line: the address divided by the line size.
type Line uint64

// DefaultLineShift is log2 of the paper's 64-byte cache line.
const DefaultLineShift = 6

// DefaultLineSize is the paper's cache line size in bytes.
const DefaultLineSize = 1 << DefaultLineShift

// LineOf returns the line containing addr for a line of size 1<<shift bytes.
func LineOf(addr Addr, shift uint) Line { return Line(uint64(addr) >> shift) }

// AddrOf returns the first byte address of line for a line of size 1<<shift.
func AddrOf(line Line, shift uint) Addr { return Addr(uint64(line) << shift) }

// Kind classifies a memory access.
type Kind uint8

// Access kinds. IFetch models instruction-cache references (one per code
// line entered, not one per instruction); Load and Store are data
// references. The distinction matters because the machine model routes
// IFetch to the IL1 and Load/Store to the DL1, and because the DL1 is
// write-through non-write-allocate (stores that miss do not allocate).
//
// PtrLoad is a Load issued by a pointer dereference in a linked data
// structure (next/child pointers). Caches treat it exactly like Load;
// it exists so the §6 extension — updating the transition filter only
// on pointer loads — can identify the class of requests the paper
// expects to have the highest miss penalty.
const (
	IFetch Kind = iota
	Load
	Store
	PtrLoad
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	case PtrLoad:
		return "ptrload"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsData reports whether the access kind goes to the data cache.
func (k Kind) IsData() bool { return k == Load || k == Store || k == PtrLoad }

// IsLoad reports whether the access reads data (Load or PtrLoad).
func (k Kind) IsLoad() bool { return k == Load || k == PtrLoad }

// Access is one memory reference.
type Access struct {
	Addr Addr
	Kind Kind
}

// Sink consumes a reference stream. Workloads push accesses into a Sink;
// the machine model, the LRU-stack profiler and the migration controller
// all implement it. Instr(n) accounts for n instructions executed since
// the previous call; it lets the harness report the paper's
// "instructions per event" metrics without tracing one I-fetch per
// instruction.
type Sink interface {
	// Access delivers one memory reference.
	Access(addr Addr, kind Kind)
	// Instr accounts for n committed instructions.
	Instr(n uint64)
}

// CountingSink wraps a Sink and tallies what flows through it. A nil
// inner Sink is allowed, making CountingSink usable as a pure counter.
type CountingSink struct {
	Inner        Sink
	Instructions uint64
	Fetches      uint64
	Loads        uint64
	Stores       uint64
}

// Access implements Sink.
func (c *CountingSink) Access(addr Addr, kind Kind) {
	switch kind {
	case IFetch:
		c.Fetches++
	case Load, PtrLoad:
		c.Loads++
	case Store:
		c.Stores++
	}
	if c.Inner != nil {
		c.Inner.Access(addr, kind)
	}
}

// Instr implements Sink.
func (c *CountingSink) Instr(n uint64) {
	c.Instructions += n
	if c.Inner != nil {
		c.Inner.Instr(n)
	}
}

// References returns the total number of memory references seen.
func (c *CountingSink) References() uint64 { return c.Fetches + c.Loads + c.Stores }

// NullSink discards everything. Useful for warming up a workload or
// measuring raw generation speed.
type NullSink struct{}

// Access implements Sink.
func (NullSink) Access(Addr, Kind) {}

// Instr implements Sink.
func (NullSink) Instr(uint64) {}

// FuncSink adapts a function to the Sink interface, ignoring Instr.
type FuncSink func(addr Addr, kind Kind)

// Access implements Sink.
func (f FuncSink) Access(addr Addr, kind Kind) { f(addr, kind) }

// Instr implements Sink.
func (FuncSink) Instr(uint64) {}
