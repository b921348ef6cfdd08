package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// modifiedCopies counts how many L2s hold line with the modified bit.
func modifiedCopies(m *Machine, line mem.Line) (valid, modified int) {
	for _, l2 := range m.l2 {
		if h, ok := l2.Lookup(line); ok {
			valid++
			if l2.Flags(h)&cache.FlagModified != 0 {
				modified++
			}
		}
	}
	return
}

// plantL2 inserts line into core's L2 with flags by hand — the state a
// past active phase on that core would have left — and keeps the
// modified-owner index in step, as the machine's own writes do. It
// refuses to plant a second modified copy, a state §2.1 never reaches.
func plantL2(t *testing.T, m *Machine, core int, line mem.Line, flags uint8) {
	t.Helper()
	m.l2[core].Insert(line, flags)
	if flags&cache.FlagModified == 0 || m.own == nil {
		return
	}
	if prev, had := m.own.put(line, core); had {
		t.Fatalf("plantL2: line %#x is already modified on core %d", line, prev)
	}
}

// TestSingleModifiedCopyInvariant enforces §2.1's central coherence
// rule — "at most a single copy of the line can be marked modified at
// any time" — under a randomized load/store stream with migrations.
func TestSingleModifiedCopyInvariant(t *testing.T) {
	m := MustNew(MigrationConfig())
	rng := trace.NewRNG(31)
	const span = 24 << 10
	var stores []mem.Line
	for i := 0; i < 600_000; i++ {
		line := mem.Line(rng.Uint64n(span))
		kind := mem.Load
		if rng.Uint64n(4) == 0 {
			kind = mem.Store
			stores = append(stores, line)
			if len(stores) > 64 {
				stores = stores[1:]
			}
		}
		m.Access(mem.AddrOf(line, 6), kind)
		// Check the invariant on recently stored lines every so often.
		if i%1000 == 0 {
			for _, l := range stores {
				if _, mod := modifiedCopies(m, l); mod > 1 {
					t.Fatalf("line %d has %d modified copies after ref %d", l, mod, i)
				}
			}
		}
	}
	if m.Stats.Migrations == 0 {
		t.Skip("stream produced no migrations; invariant checked but weakly")
	}
}

// TestInactiveCopiesStayValid: §2.1 — writing on the active core must
// NOT invalidate inactive copies; their modified bit is merely reset.
func TestInactiveCopiesStayValid(t *testing.T) {
	m := MustNew(MigrationConfig())
	line := mem.Line(0x999)

	// Load the line on core 0 (active): one clean copy.
	m.Access(mem.AddrOf(line, 6), mem.Load)
	v, mod := modifiedCopies(m, line)
	if v != 1 || mod != 0 {
		t.Fatalf("after load: %d valid, %d modified copies", v, mod)
	}

	// Plant a modified copy on another core by hand — the state core 2
	// writing the line and execution migrating back to core 0 leaves —
	// and store on the active core: the remote copy must stay valid
	// with modified reset. The line is DL1-resident, so the store is a
	// write-through (storeThrough).
	plantL2(t, m, 2, line, cache.FlagModified)
	m.Access(mem.AddrOf(line, 6), mem.Store)
	v, mod = modifiedCopies(m, line)
	if v != 2 {
		t.Fatalf("inactive copy invalidated: %d valid copies", v)
	}
	if mod != 1 {
		t.Fatalf("modified copies = %d, want exactly 1 (the active core's)", mod)
	}
	if h, ok := m.l2[2].Lookup(line); !ok || m.l2[2].Flags(h)&cache.FlagModified != 0 {
		t.Fatal("remote copy should be valid and clean")
	}
}

// TestL2ToL2ForwardOnlyModified: §2.1 — a modified remote copy is
// forwarded (with simultaneous writeback and modified reset); a clean
// remote copy cannot be forwarded and the line is re-fetched from L3.
func TestL2ToL2ForwardOnlyModified(t *testing.T) {
	m := MustNew(MigrationConfig())
	line := mem.Line(0x777)

	// Plant a MODIFIED copy on core 3; active core 0 misses.
	plantL2(t, m, 3, line, cache.FlagModified)
	m.Access(mem.AddrOf(line, 6), mem.Load)
	if m.Stats.L2ToL2 != 1 {
		t.Fatalf("modified remote copy not forwarded: L2ToL2 = %d", m.Stats.L2ToL2)
	}
	if m.Stats.L3Writebacks != 1 {
		t.Fatalf("forward must write back simultaneously: writebacks = %d", m.Stats.L3Writebacks)
	}
	if h, ok := m.l2[3].Lookup(line); !ok || m.l2[3].Flags(h)&cache.FlagModified != 0 {
		t.Fatal("forwarding must reset the source's modified bit")
	}

	// Plant a CLEAN copy of another line on core 3; no forward happens.
	line2 := mem.Line(0x888)
	plantL2(t, m, 3, line2, 0)
	m.Access(mem.AddrOf(line2, 6), mem.Load)
	if m.Stats.L2ToL2 != 1 {
		t.Fatalf("clean remote copy was forwarded: L2ToL2 = %d", m.Stats.L2ToL2)
	}
}

// TestWritebackOnlyModified: evicting a clean line must not write back.
func TestWritebackOnlyModified(t *testing.T) {
	m := MustNew(NormalConfig())
	// Fill the L2 with clean loads only; evictions happen, no writebacks.
	g := trace.NewCircular(20 << 10)
	for i := 0; i < 60<<10; i++ {
		m.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
	}
	if m.Stats.L3Writebacks != 0 {
		t.Fatalf("clean evictions wrote back %d lines", m.Stats.L3Writebacks)
	}
}

// TestActiveCoreTracksController: the machine's active core must always
// equal the controller's.
func TestActiveCoreTracksController(t *testing.T) {
	m := MustNew(MigrationConfig())
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 400_000; i++ {
		m.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
		if m.active != m.Controller().Active() {
			t.Fatalf("machine active %d != controller active %d", m.active, m.Controller().Active())
		}
	}
}
