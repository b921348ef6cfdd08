package sim

import "repro/internal/mem"

// InstrBytes is the assumed instruction size (a RISC ISA like the
// paper's PISA): 4 bytes, i.e. 16 instructions per 64-byte code line.
const InstrBytes = 4

// CPU is the workload-facing execution front-end. Workloads call Exec to
// account instruction execution inside the current function (emitting
// I-fetch line references as line boundaries are crossed, wrapping at
// the function end like a loop body), and Load/Store to emit data
// references. All references flow into the Sink.
type CPU struct {
	Sink mem.Sink

	// Instrs counts instructions executed so far (the workload budget).
	Instrs uint64

	lineShift uint
	fn        *Func
	off       uint64 // byte offset of the next instruction within fn
	curLine   mem.Line
	haveLine  bool
}

// NewCPU builds a CPU delivering references to sink (64-byte lines).
func NewCPU(sink mem.Sink) *CPU {
	return &CPU{Sink: sink, lineShift: mem.DefaultLineShift}
}

// Enter switches execution to function f. Passing the current function
// is a no-op. Each function resumes at the offset it last reached, so a
// sequence of short calls sweeps its whole body over time; the line at
// the resume point is fetched on the next Exec.
func (c *CPU) Enter(f *Func) {
	if f == c.fn {
		return
	}
	if c.fn != nil {
		c.fn.pos = c.off
	}
	c.fn = f
	c.off = 0
	if f != nil {
		c.off = f.pos
	}
	c.haveLine = false
}

// Exec executes n instructions inside the current function, walking its
// code lines cyclically (a loop body). Each distinct line entered emits
// one I-fetch reference.
func (c *CPU) Exec(n uint64) {
	if n == 0 {
		return
	}
	c.Instrs += n
	c.Sink.Instr(n)
	f := c.fn
	if f == nil {
		return // data-only workload: no code trace requested
	}
	for n > 0 {
		line := mem.LineOf(f.Entry+mem.Addr(c.off), c.lineShift)
		if !c.haveLine || line != c.curLine {
			c.Sink.Access(mem.AddrOf(line, c.lineShift), mem.IFetch)
			c.curLine = line
			c.haveLine = true
		}
		// instructions remaining on this line
		lineEnd := (uint64(f.Entry)+c.off)>>c.lineShift<<c.lineShift + (1 << c.lineShift)
		onLine := (lineEnd - (uint64(f.Entry) + c.off)) / InstrBytes
		if onLine > n {
			onLine = n
		}
		if onLine == 0 {
			onLine = 1
		}
		c.off += onLine * InstrBytes
		if c.off >= f.Size {
			c.off = 0
			c.haveLine = false
		}
		n -= onLine
	}
}

// Call executes n instructions in function f and returns to the previous
// function (modelling a call): Enter(f), Exec(n), Enter(previous).
func (c *CPU) Call(f *Func, n uint64) {
	prev := c.fn
	c.Enter(f)
	c.Exec(n)
	if prev != nil {
		c.Enter(prev)
	}
}

// Load emits a data load of the line containing addr.
func (c *CPU) Load(addr mem.Addr) {
	c.Sink.Access(addr, mem.Load)
}

// LoadPtr emits a pointer-dereference load (a linked-data-structure
// traversal step): caches treat it as a Load, but the migration
// controller can be configured to trigger only on this class (§6).
func (c *CPU) LoadPtr(addr mem.Addr) {
	c.Sink.Access(addr, mem.PtrLoad)
}

// Store emits a data store of the line containing addr.
func (c *CPU) Store(addr mem.Addr) {
	c.Sink.Access(addr, mem.Store)
}

// LoadRange touches every line of [addr, addr+size) with loads.
func (c *CPU) LoadRange(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	first := mem.LineOf(addr, c.lineShift)
	last := mem.LineOf(addr+mem.Addr(size-1), c.lineShift)
	for l := first; l <= last; l++ {
		c.Sink.Access(mem.AddrOf(l, c.lineShift), mem.Load)
	}
}
