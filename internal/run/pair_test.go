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

// ckptBytes encodes a checkpoint as EMCKPT1.
func ckptBytes(t *testing.T, ck *machine.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := machine.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPairCheckpointExtension: the policy extension rides the
// checkpoint only for non-default scenarios — spelling the defaults out
// attaches nothing, so default files keep the pre-policy format.
func TestPairCheckpointExtension(t *testing.T) {
	in := Spec{Workload: "mst", Instr: 1000, Cores: 4}
	for _, tc := range []struct {
		policy, topology string
		wantExt          bool
	}{
		{"", "", false},
		{"michaud", "uniform", false},
		{"numa", "cluster", true},
		{"never", "", true},
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
		if got, want := SpecOf(ck), in.Normalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("SpecOf = %+v, want %+v", got, want)
		}
		ext := ck.Ext()
		if (ext != nil) != tc.wantExt {
			t.Fatalf("%s/%s: extension present=%v, want %v", tc.policy, tc.topology, ext != nil, tc.wantExt)
		}
		if ext == nil {
			continue
		}
		if policy, topology := ck.Scenario(); policy != tc.policy || topology != tc.topology {
			t.Fatalf("extension names %q/%q, want %q/%q", policy, topology, tc.policy, tc.topology)
		}
		if _, err := ext.State("migration"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPairResumeMatchesUninterrupted: a pair stopped mid-stream,
// checkpointed through EMCKPT1, restored into a fresh pair and resumed
// with the prefix skipped ends in the same state as a pair that never
// stopped — for the default scenario and one whose policy state rides
// the extension.
func TestPairResumeMatchesUninterrupted(t *testing.T) {
	for _, sc := range [][2]string{{"", ""}, {"numa", "ring"}} {
		in := Spec{Workload: "mst", Instr: 60_000, Cores: 4, Policy: sc[0], Topology: sc[1]}
		ref, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		whole := &Stream{To: ref.Sinks()}
		if _, err := whole.Run(in.Feed); err != nil {
			t.Fatal(err)
		}

		first, err := in.NewPair()
		if err != nil {
			t.Fatal(err)
		}
		cut := whole.Events()/2 + 1
		part := &Stream{To: first.Sinks(), StopAt: cut}
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
		rest := &Stream{To: second.Sinks(), Skip: ck.Events}
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
