package sim

import (
	"testing"

	"repro/internal/mem"
)

// TestSpaceRegionsDisjoint: regions never overlap and allocations honour
// alignment and bounds.
func TestSpaceRegionsDisjoint(t *testing.T) {
	sp := NewSpace()
	a := sp.AddRegion("a", 1<<20)
	b := sp.AddRegion("b", 1<<20)
	if a.Limit > b.Base {
		t.Fatalf("regions overlap: a=[%d,%d) b=[%d,%d)", a.Base, a.Limit, b.Base, b.Limit)
	}
	p1 := a.Alloc(100, 64)
	p2 := a.Alloc(1, 64)
	if p1%64 != 0 || p2%64 != 0 {
		t.Fatal("alignment violated")
	}
	if p2 < p1+100 {
		t.Fatal("allocations overlap")
	}
	if a.next == a.Base {
		t.Fatal("allocation not tracked")
	}
}

// TestRegionExhaustionPanics documents the overflow contract.
func TestRegionExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on region overflow")
		}
	}()
	sp := NewSpace()
	r := sp.AddRegion("tiny", 128)
	r.Alloc(100, 8)
	r.Alloc(100, 8)
}

// TestBadAlignmentPanics: non-power-of-two alignment is rejected.
func TestBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad alignment")
		}
	}()
	sp := NewSpace()
	sp.AddRegion("r", 1<<20).Alloc(8, 3)
}

// recorder captures the access stream for CPU tests.
type recorder struct {
	accesses []mem.Access
	instrs   uint64
}

func (r *recorder) Access(a mem.Addr, k mem.Kind) {
	r.accesses = append(r.accesses, mem.Access{Addr: a, Kind: k})
}
func (r *recorder) Instr(n uint64) { r.instrs += n }

// TestCPUExecWalksCodeLines: executing instructions emits one I-fetch
// per code line entered and wraps at the function end.
func TestCPUExecWalksCodeLines(t *testing.T) {
	sp := NewSpace()
	code := sp.NewCode(1 << 16)
	f := code.Func("loop", 128) // 2 lines, 32 instructions
	rec := &recorder{}
	cpu := NewCPU(rec)
	cpu.Enter(f)
	cpu.Exec(32) // exactly one pass: 2 lines
	var fetches []mem.Addr
	for _, a := range rec.accesses {
		if a.Kind != mem.IFetch {
			t.Fatalf("unexpected kind %v", a.Kind)
		}
		fetches = append(fetches, a.Addr)
	}
	if len(fetches) != 2 || fetches[0] != f.Entry || fetches[1] != f.Entry+64 {
		t.Fatalf("fetch sequence %v, want [%d %d]", fetches, f.Entry, f.Entry+64)
	}
	if rec.instrs != 32 || cpu.Instrs != 32 {
		t.Fatalf("instr accounting: sink=%d cpu=%d", rec.instrs, cpu.Instrs)
	}
	// Another 32 instructions wrap around to the entry line again.
	cpu.Exec(32)
	if n := len(rec.accesses); n != 4 {
		t.Fatalf("after wrap: %d fetches, want 4", n)
	}
	if rec.accesses[2].Addr != f.Entry {
		t.Fatal("wrap did not return to entry line")
	}
}

// TestCPUExecTinyBursts: many 1-instruction Execs on one line emit a
// single I-fetch for that line (no duplicate fetch while staying on it).
func TestCPUExecTinyBursts(t *testing.T) {
	sp := NewSpace()
	f := sp.NewCode(1<<16).Func("f", 64) // one line, 16 instructions
	rec := &recorder{}
	cpu := NewCPU(rec)
	cpu.Enter(f)
	for i := 0; i < 16; i++ {
		cpu.Exec(1)
	}
	if len(rec.accesses) != 1 {
		t.Fatalf("%d fetches for 16 sequential instructions on one line", len(rec.accesses))
	}
}

// TestCPUCall: Call executes in the callee and returns to the caller's
// position.
func TestCPUCall(t *testing.T) {
	sp := NewSpace()
	c := sp.NewCode(1 << 16)
	caller := c.Func("caller", 64)
	callee := c.Func("callee", 64)
	rec := &recorder{}
	cpu := NewCPU(rec)
	cpu.Enter(caller)
	cpu.Exec(4)
	cpu.Call(callee, 4)
	cpu.Exec(4)
	want := []mem.Addr{caller.Entry, callee.Entry, caller.Entry}
	if len(rec.accesses) != 3 {
		t.Fatalf("fetches: %v", rec.accesses)
	}
	for i, a := range rec.accesses {
		if a.Addr != want[i] {
			t.Fatalf("fetch %d at %d, want %d", i, a.Addr, want[i])
		}
	}
}

// TestCPULoadStoreRange: range ops touch every covered line exactly once.
func TestCPULoadStoreRange(t *testing.T) {
	rec := &recorder{}
	cpu := NewCPU(rec)
	cpu.LoadRange(60, 10) // crosses the 64-byte boundary: lines 0 and 1
	if len(rec.accesses) != 2 {
		t.Fatalf("LoadRange(60,10): %d accesses, want 2", len(rec.accesses))
	}
	rec.accesses = nil
	cpu.Store(128)
	if rec.accesses[0].Kind != mem.Store {
		t.Fatal("Store kind")
	}
}

// TestFuncLineAlignment: functions are line-aligned so footprints are
// honest.
func TestFuncLineAlignment(t *testing.T) {
	sp := NewSpace()
	c := sp.NewCode(1 << 16)
	f1 := c.Func("a", 10)
	f2 := c.Func("b", 10)
	if f1.Entry%64 != 0 || f2.Entry%64 != 0 {
		t.Fatal("functions not line-aligned")
	}
	if mem.LineOf(f1.Entry, 6) == mem.LineOf(f2.Entry, 6) {
		t.Fatal("two functions share a line")
	}
	if f1.Lines() != 1 {
		t.Fatalf("Lines() = %d", f1.Lines())
	}
}

// TestCPUNoFunc: Exec with no current function accounts instructions but
// emits no fetches (data-only workloads).
func TestCPUNoFunc(t *testing.T) {
	rec := &recorder{}
	cpu := NewCPU(rec)
	cpu.Exec(100)
	if rec.instrs != 100 || len(rec.accesses) != 0 {
		t.Fatalf("instrs=%d accesses=%d", rec.instrs, len(rec.accesses))
	}
}
