package machine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/store"
)

// goldenCheckpointBytes builds a corpus of real EMCKPT1 files: both
// machine configurations driven partway through a synthetic splittable
// stream, snapshotted and serialised exactly as emsim would. The
// fuzzer starts from structurally valid checkpoints and mutates from
// there.
func goldenCheckpointBytes(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, cores := range []int{2, 4} {
		normal, err := New(NormalConfig())
		if err != nil {
			f.Fatal(err)
		}
		mig, err := New(MigrationConfigN(cores))
		if err != nil {
			f.Fatal(err)
		}
		evs := captureSynthetic(4<<10, 30_000)
		for _, e := range evs {
			for _, m := range []*Machine{normal, mig} {
				if e.isInstr {
					m.Instr(e.instr)
				} else {
					m.Access(e.addr, e.kind)
				}
			}
		}
		ns, err := normal.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		ms, err := mig.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		ck := &Checkpoint{
			Workload: "synthetic",
			Instr:    100_000,
			Cores:    cores,
			Events:   uint64(len(evs)),
			Machines: []NamedSnapshot{{Name: "normal", Snap: ns}, {Name: "migration", Snap: ms}},
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, ck); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	// Policy-bearing seed: a numa-on-cluster machine whose hysteresis
	// state rides the optional checkpoint extension, so the fuzzer
	// mutates the second gob value and the ext round-trip path.
	cfg, err := MigrationConfigScenario(4, "numa", "cluster")
	if err != nil {
		f.Fatal(err)
	}
	numa, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range captureSynthetic(4<<10, 30_000) {
		if e.isInstr {
			numa.Instr(e.instr)
		} else {
			numa.Access(e.addr, e.kind)
		}
	}
	nsn, err := numa.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	ps, err := numa.PolicyState()
	if err != nil {
		f.Fatal(err)
	}
	ext := &Checkpoint{
		Workload: "synthetic",
		Instr:    100_000,
		Cores:    4,
		Events:   30_000,
		Machines: []NamedSnapshot{{Name: "migration", Snap: nsn}},
	}
	ext.SetExt(&CheckpointExt{
		Policy:       "numa",
		Topology:     "cluster",
		PolicyStates: []NamedPolicyState{{Name: "migration", State: ps}},
	})
	var extBuf bytes.Buffer
	if err := WriteCheckpoint(&extBuf, ext); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, extBuf.Bytes())

	// States a machine never reaches: a migration snapshot holding one
	// line modified in two L2s (Restore must reject it), and a pair
	// whose two L1 sections differ (run.Pair.Restore must reject it; a
	// standalone machine takes either).
	ck, err := ReadCheckpoint(bytes.NewReader(seeds[1]))
	if err != nil {
		f.Fatal(err)
	}
	if double, ok := doubleModified(ck.Machines[1].Snap); ok {
		ck.Machines[1].Snap = double
	}
	split := ck.Machines[0].Snap
	split.IL1.Lines = append([]mem.Line(nil), split.IL1.Lines...)
	split.IL1.Lines[0] ^= 1
	ck.Machines[0].Snap = split
	var badBuf bytes.Buffer
	if err := WriteCheckpoint(&badBuf, ck); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, badBuf.Bytes())

	// Degenerate inputs: truncations, a flipped payload byte, bad magic.
	full := seeds[0]
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	seeds = append(seeds,
		full[:len(full)/2],
		full[:len(checkpointMagic)],
		flipped,
		[]byte("EMCKPT1\n"),
		[]byte("NOTACKPT"),
		[]byte{},
	)
	// Sibling-format seeds: valid EMSTORE1 result-store entries (same
	// magic+uvarint+payload+trailer family, different magic and checksum)
	// must be rejected by the checkpoint reader, not misparsed — the two
	// formats share directories in crashed-daemon debugging sessions.
	seeds = append(seeds,
		store.EncodeEntry([]byte(`{"workload":"mst","events":42}`)),
		store.EncodeEntry(nil),
		store.EncodeEntry(full), // a checkpoint wrapped in a store entry
	)
	return seeds
}

// restoreTarget builds a machine shaped like the snapshot claims to be,
// or reports that no such machine is constructible (also a clean
// outcome for hostile input). A checkpoint extension names the policy
// scenario for migration machines whose snapshot has no Controller.
func restoreTarget(ext *CheckpointExt, snap *Snapshot) (*Machine, bool) {
	if snap.Controller == nil && ext != nil && snap.Cores > 1 {
		cfg, err := MigrationConfigScenario(snap.Cores, ext.Policy, ext.Topology)
		if err != nil {
			return nil, false // hostile scenario names rejected cleanly
		}
		m, err := New(cfg)
		return m, err == nil
	}
	if snap.Controller == nil {
		m, err := New(NormalConfig())
		return m, err == nil
	}
	cfg, err := MigrationConfigFor(snap.Cores)
	if err != nil {
		return nil, false
	}
	m, err := New(cfg)
	return m, err == nil
}

// checkpointRestoreOracle is the shared fuzz body: arbitrary bytes
// through ReadCheckpoint must either fail cleanly or yield a checkpoint
// that (a) survives a write/re-read round trip bit-identically and
// (b) restores into a fresh machine either cleanly or with a proper
// error — never a panic, never a corrupted success.
func checkpointRestoreOracle(t *testing.T, data []byte) {
	ck, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return // rejected inputs just need to be rejected cleanly
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatalf("re-encoding an accepted checkpoint failed: %v", err)
	}
	ck2, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading a rewritten checkpoint failed: %v", err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Fatalf("checkpoint changed across write/read round trip:\n%+v\nvs\n%+v", ck, ck2)
	}
	for i := range ck.Machines {
		snap := &ck.Machines[i].Snap
		m, ok := restoreTarget(ck.Ext(), snap)
		if !ok {
			continue
		}
		if err := m.Restore(*snap); err != nil {
			continue // shape mismatch detected and reported: clean outcome
		}
		// A restore that claims success must have installed the
		// snapshot's observable state.
		if m.Stats != snap.Stats {
			t.Fatalf("restore succeeded but stats differ: %+v vs %+v", m.Stats, snap.Stats)
		}
		// ... and an owner index that agrees with its L2 flags.
		checkOwnerIndex(t, "restored", m)
		// Policy state from the extension must apply cleanly or fail
		// cleanly — mutated state blobs may not panic the decoder.
		if ext := ck.Ext(); ext != nil {
			if ps, err := ext.State(ck.Machines[i].Name); err == nil {
				_ = m.SetPolicyState(ps)
			}
		}
	}
}

// FuzzCheckpointRestore fuzzes the EMCKPT1 deserialise → restore path
// with golden checkpoints as the seed corpus.
func FuzzCheckpointRestore(f *testing.F) {
	for _, s := range goldenCheckpointBytes(f) {
		f.Add(s)
	}
	f.Fuzz(checkpointRestoreOracle)
}

// TestFuzzCheckpointCorpusSmoke runs the fuzz oracle over a golden
// corpus in a plain test, so `go test` exercises the path even without
// -fuzz.
func TestFuzzCheckpointCorpusSmoke(t *testing.T) {
	for i, s := range goldenCheckpointSeedsForTest(t) {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			checkpointRestoreOracle(t, s)
		})
	}
}

// goldenCheckpointSeedsForTest rebuilds the golden corpus under a
// *testing.T (the builder wants testing.F for f.Helper/f.Fatal).
func goldenCheckpointSeedsForTest(t *testing.T) [][]byte {
	t.Helper()
	normal, err := New(NormalConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := captureSynthetic(4<<10, 20_000)
	deliver(t, evs, normal)
	ns, err := normal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Workload: "synthetic", Instr: 50_000, Cores: 1, Events: uint64(len(evs)),
		Machines: []NamedSnapshot{{Name: "normal", Snap: ns}}}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{full, full[:len(full)/2], flipped, []byte("EMCKPT1\n"), {}}
}
