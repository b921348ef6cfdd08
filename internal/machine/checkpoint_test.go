package machine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// recordedEvent is one sink event captured for exact replay control.
type recordedEvent struct {
	addr    mem.Addr
	kind    mem.Kind
	instr   uint64
	isInstr bool
}

type recordingSink struct{ evs []recordedEvent }

func (r *recordingSink) Access(a mem.Addr, k mem.Kind) {
	r.evs = append(r.evs, recordedEvent{addr: a, kind: k})
}
func (r *recordingSink) Instr(n uint64) {
	r.evs = append(r.evs, recordedEvent{instr: n, isInstr: true})
}

func deliver(t *testing.T, evs []recordedEvent, sinks ...mem.Sink) {
	t.Helper()
	for _, e := range evs {
		for _, s := range sinks {
			if e.isInstr {
				s.Instr(e.instr)
			} else {
				s.Access(e.addr, e.kind)
			}
		}
	}
}

// captureWorkload records a workload's event stream once, so the
// interrupted and uninterrupted runs see byte-identical input.
func captureWorkload(t *testing.T, name string, budget uint64) []recordedEvent {
	t.Helper()
	w, err := suite.Registry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	var rec recordingSink
	w.Run(&rec, budget)
	return rec.evs
}

// captureSynthetic records a circular sweep (the paper's canonical
// splittable behaviour).
func captureSynthetic(lines, refs uint64) []recordedEvent {
	var rec recordingSink
	trace.Drive(trace.NewCircular(lines), &rec, refs, 6, 3)
	return rec.evs
}

// pairGroup builds the experiment's two machines over one L1 front end.
func pairGroup(t *testing.T) (g *Group, normal, mig *Machine) {
	t.Helper()
	g, err := NewGroup(NormalConfig(), MigrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, g.ms[0], g.ms[1]
}

// TestCheckpointRoundTrip: checkpointing both machines mid-run, pushing
// the checkpoint through the serialised format, restoring into FRESH
// machines and finishing the run must give final stats bit-identical
// to the uninterrupted run — for a SPEC analogue, an Olden analogue and
// a synthetic workload.
func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		evs  func(t *testing.T) []recordedEvent
	}{
		{"181.mcf", func(t *testing.T) []recordedEvent { return captureWorkload(t, "181.mcf", 400_000) }},
		{"em3d", func(t *testing.T) []recordedEvent { return captureWorkload(t, "em3d", 400_000) }},
		{"circular", func(t *testing.T) []recordedEvent { return captureSynthetic(24<<10, 150_000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs := tc.evs(t)
			if len(evs) < 1000 {
				t.Fatalf("workload produced only %d events", len(evs))
			}

			// Uninterrupted reference run.
			ref, refNormal, refMig := pairGroup(t)
			deliver(t, evs, ref)

			// Interrupted run: stop at ~40%, checkpoint, restore, finish.
			cut := len(evs) * 2 / 5
			a, _, _ := pairGroup(t)
			deliver(t, evs[:cut], a)

			ck, err := a.Capture("normal", "migration")
			if err != nil {
				t.Fatal(err)
			}
			ck.Workload, ck.Cores, ck.Events = tc.name, 4, uint64(cut)
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, ck); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Events != uint64(cut) || loaded.Workload != tc.name {
				t.Fatalf("checkpoint metadata mangled: %+v", loaded)
			}

			b, bNormal, bMig := pairGroup(t)
			if err := b.Restore(loaded, "normal", "migration"); err != nil {
				t.Fatal(err)
			}
			deliver(t, evs[cut:], b)

			if got, want := bNormal.FinalStats(), refNormal.FinalStats(); got != want {
				t.Errorf("normal stats diverged after resume:\n got %+v\nwant %+v", got, want)
			}
			if got, want := bMig.FinalStats(), refMig.FinalStats(); got != want {
				t.Errorf("migration stats diverged after resume:\n got %+v\nwant %+v", got, want)
			}
			if bMig.active != refMig.active {
				t.Errorf("active core %d after resume, want %d", bMig.active, refMig.active)
			}
		})
	}
}

// TestCheckpointRoundTripCores covers the 2- and 8-way splitters' state
// (different mechanism trees) with the synthetic workload.
func TestCheckpointRoundTripCores(t *testing.T) {
	evs := captureSynthetic(24<<10, 120_000)
	for _, cores := range []int{2, 8} {
		ref := MustNew(MigrationConfigN(cores))
		deliver(t, evs, ref)

		cut := len(evs) / 3
		a := MustNew(MigrationConfigN(cores))
		deliver(t, evs[:cut], a)
		ck, err := a.grp.Capture("migration")
		if err != nil {
			t.Fatal(err)
		}
		b := MustNew(MigrationConfigN(cores))
		if err := b.grp.Restore(ck, "migration"); err != nil {
			t.Fatal(err)
		}
		deliver(t, evs[cut:], b)
		if got, want := b.FinalStats(), ref.FinalStats(); got != want {
			t.Errorf("%d-core stats diverged after resume:\n got %+v\nwant %+v", cores, got, want)
		}
	}
}

// TestCheckpointFileAtomicSave: SaveCheckpoint + LoadCheckpoint round
// trip through the filesystem, and corruption is detected by the CRC.
func TestCheckpointFileAtomicSave(t *testing.T) {
	m := MustNew(MigrationConfig())
	trace.Drive(trace.NewCircular(4000), m, 50_000, 6, 3)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Workload: "x", Cores: 4, Events: 50_000,
		Machines: []NamedSnapshot{{Name: "migration", Snap: snap}}}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Events != ck.Events || len(loaded.Machines) != 1 {
		t.Fatalf("loaded checkpoint mangled: %+v", loaded)
	}

	// Saving again overwrites atomically (no stale temp files left).
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after save: %v", entries)
	}

	// Any single corrupted byte in the payload region must be detected.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupted byte %d accepted", pos)
		}
	}
	// Truncation must be detected too.
	if _, err := ReadCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestRestoreShapeMismatch: restoring into a machine with a different
// configuration must fail loudly.
func TestRestoreShapeMismatch(t *testing.T) {
	a := MustNew(MigrationConfigN(4))
	trace.Drive(trace.NewCircular(4000), a, 20_000, 6, 3)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := MustNew(MigrationConfigN(8)).Restore(snap); err == nil {
		t.Fatal("4-core snapshot restored into 8-core machine")
	}
	if err := MustNew(NormalConfig()).Restore(snap); err == nil {
		t.Fatal("migration snapshot restored into normal machine")
	}
}

// doubleModified returns a copy of snap in which a line modified in one
// L2 is also planted modified in another — a state §2.1 never reaches —
// or false when snap holds no modified line.
func doubleModified(snap Snapshot) (Snapshot, bool) {
	out := snap
	out.L2 = make([]cache.SetAssocState, len(snap.L2))
	for i, st := range snap.L2 {
		st.Lines = append([]mem.Line(nil), st.Lines...)
		st.Valid = append([]bool(nil), st.Valid...)
		st.Flags = append([]uint8(nil), st.Flags...)
		out.L2[i] = st
	}
	for c, st := range out.L2 {
		for f, line := range st.Lines {
			if !st.Valid[f] || st.Flags[f]&cache.FlagModified == 0 {
				continue
			}
			other := out.L2[(c+1)%len(out.L2)]
			g := 0
			if !other.Valid[g] {
				other.Valid[g] = true
				other.Count++
			}
			other.Lines[g], other.Flags[g] = line, cache.FlagModified
			out.L2[(c+1)%len(out.L2)] = other
			return out, true
		}
	}
	return out, false
}

// TestRestoreValidatesOwners: Restore rebuilds the modified-owner index
// from the L2 states, and rejects states the machine can never reach —
// one line modified in two L2s, or a line too wide for the index.
func TestRestoreValidatesOwners(t *testing.T) {
	src := MustNew(MigrationConfigN(4))
	deliver(t, captureWorkload(t, "181.mcf", 200_000), src)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	double, ok := doubleModified(snap)
	if !ok {
		t.Fatal("the stream left no modified line to duplicate")
	}
	wide := snap
	wide.L2 = append([]cache.SetAssocState(nil), snap.L2...)
	wide.L2[1].Lines = append([]mem.Line(nil), snap.L2[1].Lines...)
	wide.L2[1].Valid = append([]bool(nil), snap.L2[1].Valid...)
	wide.L2[1].Flags = append([]uint8(nil), snap.L2[1].Flags...)
	if !wide.L2[1].Valid[0] {
		wide.L2[1].Valid[0] = true
		wide.L2[1].Count++
	}
	wide.L2[1].Lines[0], wide.L2[1].Flags[0] = ^mem.Line(0), cache.FlagModified

	for _, tc := range []struct {
		name string
		snap Snapshot
		ok   bool
	}{
		{"reachable", snap, true},
		{"two modified copies", double, false},
		{"line too wide", wide, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(MigrationConfigN(4))
			err := m.Restore(tc.snap)
			if (err == nil) != tc.ok {
				t.Fatalf("Restore error = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok {
				checkOwnerIndex(t, "restored", m)
				if m.own.n == 0 {
					t.Fatal("restored index is empty")
				}
			}
		})
	}
	// A single-core machine has no remote copy and no index to keep.
	n := MustNew(NormalConfig())
	deliver(t, captureWorkload(t, "181.mcf", 50_000), n)
	ns, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := MustNew(NormalConfig()).Restore(ns); err != nil {
		t.Fatal(err)
	}
}
