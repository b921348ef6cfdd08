package run

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// ckptBytes encodes a checkpoint as EMCKPT2.
func ckptBytes(t *testing.T, ck *machine.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := machine.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPairCheckpointScenario: a pair's checkpoint names its scenario
// in the normalized spelling, so spelled-out defaults name nothing, and
// carries a policy state for the migration machine alone, whatever the
// policy.
func TestPairCheckpointScenario(t *testing.T) {
	in := Spec{Workload: "mst", Instr: 1000, Cores: 4}
	for _, tc := range []struct {
		policy, topology string
		wantPolicy       string
	}{
		{"", "", "michaud"},
		{"michaud", "uniform", "michaud"},
		{"", "ring", "michaud"},
		{"numa", "cluster", "numa"},
		{"never", "", "never"},
	} {
		in.Policy, in.Topology = tc.policy, tc.topology
		p, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := p.Checkpoint(in, 7)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Workload != "mst" || ck.Instr != 1000 || ck.Cores != 4 || ck.Events != 7 {
			t.Fatalf("%s/%s: header %+v", tc.policy, tc.topology, ck)
		}
		// The checkpoint gives back the spec it was taken under, in
		// its normalized spelling.
		want := in.Normalize()
		if got := SpecOf(ck); !reflect.DeepEqual(got, want) {
			t.Fatalf("SpecOf = %+v, want %+v", got, want)
		}
		if ck.Policy != want.Policy || ck.Topology != want.Topology {
			t.Fatalf("%s/%s: checkpoint names %q/%q, want %q/%q", tc.policy, tc.topology, ck.Policy, ck.Topology, want.Policy, want.Topology)
		}
		ns, _ := ck.Machine("normal")
		ms, _ := ck.Machine("migration")
		if ns == nil || ms == nil || ns.Policy != nil || ms.Policy == nil || ms.Policy.Name != tc.wantPolicy {
			t.Fatalf("%s/%s: policy states normal=%v migration=%v, want none and %q", tc.policy, tc.topology, ns, ms, tc.wantPolicy)
		}
	}
}

// TestPairResumeMatchesUninterrupted: a pair stopped mid-stream,
// checkpointed through EMCKPT2, restored into a fresh pair and resumed
// with the prefix skipped ends in the same state as a pair that never
// stopped — for the default scenario and one with a hysteresis.
func TestPairResumeMatchesUninterrupted(t *testing.T) {
	for _, sc := range [][2]string{{"", ""}, {"numa", "ring"}} {
		in := Spec{Workload: "mst", Instr: 60_000, Cores: 4, Policy: sc[0], Topology: sc[1]}
		ref, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		whole := &Stream{To: ref.Sink()}
		if _, err := whole.Run(in.Feed); err != nil {
			t.Fatal(err)
		}

		first, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		cut := whole.Events()/2 + 1
		part := &Stream{To: first.Sink(), StopAt: cut}
		if stopped, err := part.Run(in.Feed); err != nil || !stopped {
			t.Fatalf("stopped=%v err=%v", stopped, err)
		}
		ck, err := first.Checkpoint(in, part.Position())
		if err != nil {
			t.Fatal(err)
		}
		if ck, err = machine.RoundTripCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		second, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Restore(ck); err != nil {
			t.Fatal(err)
		}
		rest := &Stream{To: second.Sink(), Skip: ck.Events}
		if _, err := rest.Run(in.Feed); err != nil {
			t.Fatal(err)
		}
		if rest.Events() != whole.Events() {
			t.Fatalf("%v: resumed run saw %d events, uninterrupted %d", sc, rest.Events(), whole.Events())
		}
		if !reflect.DeepEqual(second.Normal.FinalStats(), ref.Normal.FinalStats()) ||
			!reflect.DeepEqual(second.Mig.FinalStats(), ref.Mig.FinalStats()) {
			t.Fatalf("%v: resumed stats diverge from the uninterrupted run", sc)
		}
		a, err := second.Checkpoint(in, rest.Events())
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.Checkpoint(in, whole.Events())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckptBytes(t, a), ckptBytes(t, b)) {
			t.Fatalf("%v: resumed end state checkpoints differently from the uninterrupted run", sc)
		}
	}
}

// TestPairRestoreRejectsMismatch: a checkpoint without the named
// machines is an error, not a silent half-restore.
func TestPairRestoreRejectsMismatch(t *testing.T) {
	p, err := Spec{Cores: 4}.NewPair()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(&machine.Checkpoint{Cores: 4}); err == nil {
		t.Fatal("restored from a checkpoint with no machines")
	}
	if _, err := (Spec{Cores: 3}).NewPair(); err == nil {
		t.Fatal("built a pair for an unsupported core count")
	}
}

// TestInputFeed: a spec's workload and its recorded trace feed the
// identical stream; bad inputs are errors.
func TestInputFeed(t *testing.T) {
	const instr = 40_000
	path := filepath.Join(t.TempDir(), "em3d.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := suite.Registry().New("em3d")
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(tw, instr)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var want recSink
	if err := (Spec{Workload: "em3d", Instr: instr}).Feed(&want); err != nil {
		t.Fatal(err)
	}
	if len(want.kinds) == 0 {
		t.Fatal("workload fed nothing")
	}
	for _, in := range []Spec{
		{Workload: "em3d", Instr: instr, Registry: suite.Registry()},
		{Replay: path},
	} {
		var got recSink
		if err := in.Feed(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v fed %d records, want the workload's %d", in, len(got.kinds), len(want.kinds))
		}
	}
	for _, in := range []Spec{
		{Workload: "no-such-workload", Instr: instr},
		{Replay: filepath.Join(t.TempDir(), "missing.trace")},
	} {
		if err := in.Feed(&recSink{}); err == nil {
			t.Fatalf("%+v: no error", in)
		}
	}
}
