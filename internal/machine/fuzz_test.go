package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/store"
)

// goldenCheckpointBytes builds a corpus of real checkpoint files: the
// pair driven partway through a synthetic splittable stream and
// serialised exactly as emsim would, in EMCKPT2 and in the EMCKPT1
// layout the translator reads. The fuzzer starts from structurally
// valid checkpoints and mutates from there.
func goldenCheckpointBytes(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, cores := range []int{2, 4} {
		seeds = append(seeds, ckptBytes(f, scenarioPair(f, cores, "", "", 30_000)))
	}

	// Policy-bearing seed: a numa-on-cluster pair, whose controller
	// state carries the hysteresis.
	numa := scenarioPair(f, 4, "numa", "cluster", 30_000)
	seeds = append(seeds, ckptBytes(f, numa))

	// A state a machine never reaches: a migration snapshot holding one
	// line modified in two L2s (Restore must reject it).
	ck, err := ReadCheckpoint(bytes.NewReader(seeds[1]))
	if err != nil {
		f.Fatal(err)
	}
	if double, ok := doubleModified(ck.Machines[1].Snap); ok {
		ck.Machines[1].Snap = double
	}
	seeds = append(seeds, ckptBytes(f, ck))

	// Degenerate inputs: truncations, a flipped payload byte, bad magic.
	full := seeds[0]
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	seeds = append(seeds,
		full[:len(full)/2],
		full[:len(checkpointMagic)],
		flipped,
		[]byte(checkpointMagic),
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

	// EMCKPT1 seeds, so the translator is fuzzed: the default pair, the
	// numa pair with its extension envelope, the default policy on a ring
	// (its state written twice), and a pair whose two L1 sections differ
	// (refused).
	v1, err := ReadCheckpoint(bytes.NewReader(seeds[1]))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		encodeV1(f, v1, nil),
		encodeV1(f, numa, nil),
		encodeV1(f, scenarioPair(f, 4, "", "ring", 30_000), nil),
		encodeV1(f, v1, func(ms []*v1TestSnapshot, _ []*v1TestEnvelope) { ms[1].DL1.Clock++ }),
		[]byte(checkpointMagicV1),
	)
	return seeds
}

// restoreTarget builds a machine shaped like the snapshot claims to be,
// or reports that no such machine is constructible (also a clean
// outcome for hostile input): a normal machine without a policy state,
// else the checkpoint's scenario.
func restoreTarget(ck *Checkpoint, snap *Snapshot) (*Machine, bool) {
	cfg := NormalConfig()
	if snap.Policy != nil {
		var err error
		if cfg, err = MigrationConfigScenario(snap.Cores, ck.Policy, ck.Topology); err != nil {
			return nil, false // hostile core counts and scenario names rejected cleanly
		}
	}
	m, err := New(cfg)
	return m, err == nil
}

// checkpointRestoreOracle is the shared fuzz body: arbitrary bytes
// through ReadCheckpoint must either fail cleanly or yield a checkpoint
// that (a) re-encodes to the same bytes after a write/re-read round
// trip and (b) restores into a fresh machine either cleanly or with a
// proper error — never a panic, never a corrupted success.
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
	var buf2 bytes.Buffer
	if err := WriteCheckpoint(&buf2, ck2); err != nil {
		t.Fatalf("re-encoding a re-read checkpoint failed: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("checkpoint changed across write/read round trip:\n%+v\nvs\n%+v", ck, ck2)
	}
	for i := range ck.Machines {
		snap := &ck.Machines[i].Snap
		m, ok := restoreTarget(ck, snap)
		if !ok {
			continue
		}
		one := &Checkpoint{IL1: ck.IL1, DL1: ck.DL1, Machines: ck.Machines[i : i+1]}
		if err := m.grp.Restore(one, ck.Machines[i].Name); err != nil {
			continue // shape mismatch detected and reported: clean outcome
		}
		// A restore that claims success must have installed the
		// snapshot's observable state.
		if m.Stats != snap.Stats {
			t.Fatalf("restore succeeded but stats differ: %+v vs %+v", m.Stats, snap.Stats)
		}
		// ... and an owner index that agrees with its L2 flags.
		checkOwnerIndex(t, "restored", m)
	}
}

// FuzzCheckpointRestore fuzzes the checkpoint deserialise → restore path
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

// goldenCheckpointSeedsForTest rebuilds a small golden corpus under a
// *testing.T (the builder wants testing.F for f.Helper/f.Fatal).
func goldenCheckpointSeedsForTest(t *testing.T) [][]byte {
	t.Helper()
	normal, err := New(NormalConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := captureSynthetic(4<<10, 20_000)
	deliver(t, evs, normal)
	ck, err := normal.grp.Capture("normal")
	if err != nil {
		t.Fatal(err)
	}
	ck.Workload, ck.Instr, ck.Cores, ck.Events = "synthetic", 50_000, 1, uint64(len(evs))
	full := ckptBytes(t, ck)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{full, full[:len(full)/2], flipped, []byte(checkpointMagic), {}}
}
