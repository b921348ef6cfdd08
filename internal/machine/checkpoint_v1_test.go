package machine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// encodeV1 writes ck in the EMCKPT1 layout, as the previous writer did:
// every snapshot carries the L1 section, the michaud state rides
// Snapshot.Controller in its old shape, and a non-default scenario adds
// a second gob value with gob-encoded policy envelopes. The types are
// declared here, under the names the previous writer's types had,
// because gob writes type names into the stream. edit, when non-nil,
// may alter the v1 values before they are encoded.
func encodeV1(t testing.TB, ck *Checkpoint, edit func(ms []*v1TestSnapshot, envs []*v1TestEnvelope)) []byte {
	t.Helper()
	type ControllerState struct {
		Split                               affinity.SplitterState
		Table                               affinity.TableState
		Active                              int
		Migrations, Requests, L2MissUpdates uint64
		LastMigRequests                     uint64
	}
	type NumaState migration.ControllerState
	type Snapshot struct {
		Cores      int
		Active     int
		IL1, DL1   cache.SetAssocState
		L2         []cache.SetAssocState
		L3         *cache.SetAssocState
		Prefetch   *prefetch.State
		Controller *ControllerState
		Stats      Stats
		Telemetry  telemetry.Snapshot
	}
	type NamedSnapshot struct {
		Name string
		Snap Snapshot
	}
	type Checkpoint struct {
		Workload string
		Replay   string
		Instr    uint64
		Cores    int
		Events   uint64
		Machines []NamedSnapshot
	}
	type PolicyState struct {
		Name string
		Data []byte
	}
	type NamedPolicyState struct {
		Name  string
		State PolicyState
	}
	type CheckpointExt struct {
		Policy       string
		Topology     string
		PolicyStates []NamedPolicyState
	}
	enc := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	michaud := func(c *migration.ControllerState) *ControllerState {
		return &ControllerState{Split: c.Split, Table: c.Table, Active: c.Active, Migrations: c.Migrations,
			Requests: c.Requests, L2MissUpdates: c.L2MissUpdates, LastMigRequests: c.LastMigRequests}
	}

	var ms []*v1TestSnapshot
	var envs []*v1TestEnvelope
	for _, m := range ck.Machines {
		s := &v1TestSnapshot{Name: m.Name, Snap: m.Snap, IL1: ck.IL1, DL1: ck.DL1}
		ms = append(ms, s)
		p := m.Snap.Policy
		if p != nil && p.Name == migration.PolicyMichaud {
			s.Controller = p.Controller
		}
		if p != nil && (ck.Policy != "" || ck.Topology != "") {
			envs = append(envs, &v1TestEnvelope{Name: m.Name, State: *p})
		}
	}
	if edit != nil {
		edit(ms, envs)
	}
	old := Checkpoint{Workload: ck.Workload, Replay: ck.Replay, Instr: ck.Instr, Cores: ck.Cores, Events: ck.Events}
	for _, s := range ms {
		v := Snapshot{Cores: s.Snap.Cores, Active: s.Snap.Active, IL1: s.IL1, DL1: s.DL1, L2: s.Snap.L2,
			L3: s.L3, Prefetch: s.Snap.Prefetch, Stats: s.Snap.Stats, Telemetry: s.Snap.Telemetry}
		if s.Controller != nil {
			v.Controller = michaud(s.Controller)
		}
		old.Machines = append(old.Machines, NamedSnapshot{Name: s.Name, Snap: v})
	}
	// The extension followed the checkpoint in one gob stream.
	var buf bytes.Buffer
	ge := gob.NewEncoder(&buf)
	if err := ge.Encode(old); err != nil {
		t.Fatal(err)
	}
	if len(envs) > 0 {
		ext := CheckpointExt{Policy: ck.Policy, Topology: ck.Topology}
		for _, e := range envs {
			var data []byte
			switch e.State.Name {
			case migration.PolicyMichaud:
				data = enc(*michaud(e.State.Controller))
			case migration.PolicyNuma:
				data = enc(NumaState(*e.State.Controller))
			default:
				data = enc(*e.State.Never)
			}
			ext.PolicyStates = append(ext.PolicyStates, NamedPolicyState{Name: e.Name, State: PolicyState{Name: e.State.Name, Data: data}})
		}
		if err := ge.Encode(ext); err != nil {
			t.Fatal(err)
		}
	}
	payload := buf.Bytes()
	out := []byte(checkpointMagicV1)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// v1TestSnapshot is one machine as encodeV1 is about to write it. L3 is
// nil unless a test sets it: no EMCKPT1 writer configured a finite L3.
type v1TestSnapshot struct {
	Name       string
	Snap       Snapshot
	IL1, DL1   cache.SetAssocState
	L3         *cache.SetAssocState
	Controller *migration.ControllerState
}

// v1TestEnvelope is one extension policy envelope before encoding.
type v1TestEnvelope struct {
	Name  string
	State migration.PolicyState
}

// scenarioPair runs the pair of a scenario over a synthetic stream and
// captures it.
func scenarioPair(t testing.TB, cores int, policy, topology string, refs uint64) *Checkpoint {
	t.Helper()
	mig, err := MigrationConfigScenario(cores, policy, topology)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(NormalConfig(), mig)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range captureSynthetic(4<<10, refs) {
		if e.isInstr {
			g.Instr(e.instr)
		} else {
			g.Access(e.addr, e.kind)
		}
	}
	ck, err := g.Capture("normal", "migration")
	if err != nil {
		t.Fatal(err)
	}
	ck.Workload, ck.Instr, ck.Cores, ck.Events, ck.Policy = "synthetic", refs, cores, refs, mig.Policy
	if mig.Topology != nil {
		ck.Topology = mig.Topology.Name
	}
	return ck
}

func ckptBytes(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointV1Translation: every EMCKPT1 shape reads back as the
// EMCKPT2 checkpoint of the same state, byte for byte once re-written.
func TestCheckpointV1Translation(t *testing.T) {
	for _, sc := range [][2]string{{"", ""}, {"", "ring"}, {"numa", "ring"}, {"never", ""}} {
		ck := scenarioPair(t, 4, sc[0], sc[1], 20_000)
		got, err := ReadCheckpoint(bytes.NewReader(encodeV1(t, ck, nil)))
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if !bytes.Equal(ckptBytes(t, got), ckptBytes(t, ck)) {
			t.Fatalf("%v: EMCKPT1 translation differs from the EMCKPT2 checkpoint", sc)
		}
	}
}

// TestCheckpointV1RejectsSplitL1: EMCKPT1 gave each machine its own L1
// section, but the pair's machines share one L1 front end, so a file
// whose normal and migration IL1 or DL1 sections differ is refused;
// equal sections translate.
func TestCheckpointV1RejectsSplitL1(t *testing.T) {
	ck := scenarioPair(t, 4, "", "", 20_000)
	for _, tc := range []struct {
		name string
		edit func(*v1TestSnapshot)
		ok   bool
	}{
		{"same L1s", func(*v1TestSnapshot) {}, true},
		{"IL1 differs", func(s *v1TestSnapshot) {
			s.IL1.Lines = append([]mem.Line(nil), s.IL1.Lines...)
			s.IL1.Lines[3] ^= 1
		}, false},
		{"DL1 differs", func(s *v1TestSnapshot) { s.DL1.Clock++ }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeV1(t, ck, func(ms []*v1TestSnapshot, _ []*v1TestEnvelope) { tc.edit(ms[1]) })
			if _, err := ReadCheckpoint(bytes.NewReader(raw)); (err == nil) != tc.ok {
				t.Fatalf("ReadCheckpoint error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestCheckpointV1RejectsFiniteL3: EMCKPT1 snapshots had room for a
// finite shared L3, which the machine does not model. A file that
// fills it is refused, naming the machine, rather than resumed into a
// machine whose L3 is infinite.
func TestCheckpointV1RejectsFiniteL3(t *testing.T) {
	ck := scenarioPair(t, 4, "", "", 20_000)
	l3 := cache.NewSetAssoc(cache.GeometryFor(1<<20, 6, 8, false)).State()
	raw := encodeV1(t, ck, func(ms []*v1TestSnapshot, _ []*v1TestEnvelope) { ms[1].L3 = &l3 })
	_, err := ReadCheckpoint(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("accepted an EMCKPT1 file whose snapshot holds a finite L3")
	}
	if !strings.Contains(err.Error(), `"migration"`) {
		t.Fatalf("error %q does not name the machine", err)
	}
}

// TestCheckpointV1RejectsDisagreeingEnvelope: EMCKPT1 wrote the default
// policy's state twice on a non-uniform topology; a file whose two
// copies differ is refused rather than resumed from either.
func TestCheckpointV1RejectsDisagreeingEnvelope(t *testing.T) {
	ck := scenarioPair(t, 4, "", "ring", 20_000)
	raw := encodeV1(t, ck, func(_ []*v1TestSnapshot, envs []*v1TestEnvelope) {
		c := *envs[0].State.Controller
		c.Migrations++
		envs[0].State.Controller = &c
	})
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted an EMCKPT1 file whose controller and envelope states differ")
	}
}
