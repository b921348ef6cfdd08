// Package machine holds the end-to-end tests of EMCKPT1 compatibility:
// emsim -resume of checkpoints in the previous format. It is named
// machine, like the package whose old writer it reproduces, because gob
// writes the name of an unnamed slice type with its package into the
// stream ("[]machine.NamedSnapshot"); under any other name encodeV1
// could not produce the old writer's bytes.
package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// emsimBin is the emsim binary TestMain builds.
var emsimBin string

// TestMain builds emsim, or, when the test binary is re-run as the
// EMCKPT1 encoder (see writeV1), does only that.
func TestMain(m *testing.M) {
	if from := os.Getenv("EMCKPT1_FROM"); from != "" {
		if err := encodeV1File(from, os.Getenv("EMCKPT1_TO"), os.Getenv("EMCKPT1_EDIT")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "emckpt1-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	emsimBin = filepath.Join(dir, "emsim")
	build := exec.Command("go", "build", "-o", emsimBin, "repro/cmd/emsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building emsim:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// emsim runs the binary and returns its exit code, stdout and stderr.
func emsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(emsimBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("emsim %s: %v", strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return code, out.String(), errb.String()
}

// mustEmsim is emsim for runs that must succeed.
func mustEmsim(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := emsim(t, args...)
	if code != 0 {
		t.Fatalf("emsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// writeV1 re-runs the test binary as the EMCKPT1 encoder: it reads the
// EMCKPT2 checkpoint at from and writes it, edited as named, to a new
// EMCKPT1 file, whose path it returns. Gob numbers types per process
// in first-use order and writes those numbers into the stream, so only
// a fresh process encodes in the order the old emsim did.
func writeV1(t *testing.T, from, edit string) string {
	t.Helper()
	to := filepath.Join(t.TempDir(), "v1.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "EMCKPT1_FROM="+from, "EMCKPT1_TO="+to, "EMCKPT1_EDIT="+edit)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("EMCKPT1 encoder: %v\n%s", err, out)
	}
	return to
}

// v1Edits are the edits writeV1 can make: the states the old writer
// never produced, which the reader must refuse.
var v1Edits = map[string]func(ms []*v1Snapshot, envs []*v1Envelope){
	"": nil,
	// The migration machine's DL1 section differs from the normal one's.
	"split-l1": func(ms []*v1Snapshot, _ []*v1Envelope) { ms[1].DL1.Clock++ },
	// The extension envelope disagrees with Snapshot.Controller.
	"envelope": func(_ []*v1Snapshot, envs []*v1Envelope) {
		c := *envs[0].State.Controller
		c.Requests++
		envs[0].State.Controller = &c
	},
}

func encodeV1File(from, to, edit string) error {
	ck, err := machine.LoadCheckpoint(from)
	if err != nil {
		return err
	}
	fn, ok := v1Edits[edit]
	if !ok {
		return fmt.Errorf("unknown edit %q", edit)
	}
	b, err := encodeV1(ck, fn)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// v1Snapshot is one machine as encodeV1 is about to write it.
type v1Snapshot struct {
	Name       string
	Snap       machine.Snapshot
	IL1, DL1   cache.SetAssocState
	Controller *migration.ControllerState
}

// v1Envelope is one extension policy envelope before encoding.
type v1Envelope struct {
	Name  string
	State migration.PolicyState
}

// encodeV1 writes ck in the EMCKPT1 layout, as emsim wrote it before
// EMCKPT2: every snapshot carries the L1 section, the michaud state
// rides Snapshot.Controller in its old shape, and a non-default
// scenario adds a second gob value holding gob-encoded policy
// envelopes. The types are declared here under the names the old
// writer's types had, because gob writes type names into the stream,
// and the envelopes are encoded first, as the old writer captured them
// before it wrote the checkpoint. edit, when non-nil, may alter the v1
// values before encoding.
func encodeV1(ck *machine.Checkpoint, edit func(ms []*v1Snapshot, envs []*v1Envelope)) ([]byte, error) {
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
		L3         *cache.SetAssocState // written nil: no EMCKPT1 writer configured a finite L3
		Prefetch   *prefetch.State
		Controller *ControllerState
		Stats      machine.Stats
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
	michaud := func(c *migration.ControllerState) *ControllerState {
		return &ControllerState{Split: c.Split, Table: c.Table, Active: c.Active, Migrations: c.Migrations,
			Requests: c.Requests, L2MissUpdates: c.L2MissUpdates, LastMigRequests: c.LastMigRequests}
	}

	var ms []*v1Snapshot
	var envs []*v1Envelope
	for _, m := range ck.Machines {
		s := &v1Snapshot{Name: m.Name, Snap: m.Snap, IL1: ck.IL1, DL1: ck.DL1}
		ms = append(ms, s)
		p := m.Snap.Policy
		if p != nil && p.Name == migration.PolicyMichaud {
			s.Controller = p.Controller
		}
		if p != nil && (ck.Policy != "" || ck.Topology != "") {
			envs = append(envs, &v1Envelope{Name: m.Name, State: *p})
		}
	}
	if edit != nil {
		edit(ms, envs)
	}
	ext := CheckpointExt{Policy: ck.Policy, Topology: ck.Topology}
	for _, e := range envs {
		var state any
		switch e.State.Name {
		case migration.PolicyMichaud:
			state = *michaud(e.State.Controller)
		case migration.PolicyNuma:
			state = NumaState(*e.State.Controller)
		default:
			state = *e.State.Never
		}
		var data bytes.Buffer
		if err := gob.NewEncoder(&data).Encode(state); err != nil {
			return nil, err
		}
		ext.PolicyStates = append(ext.PolicyStates, NamedPolicyState{Name: e.Name,
			State: PolicyState{Name: e.State.Name, Data: data.Bytes()}})
	}
	old := Checkpoint{Workload: ck.Workload, Replay: ck.Replay, Instr: ck.Instr, Cores: ck.Cores, Events: ck.Events}
	for _, s := range ms {
		v := Snapshot{Cores: s.Snap.Cores, Active: s.Snap.Active, IL1: s.IL1, DL1: s.DL1, L2: s.Snap.L2,
			Prefetch: s.Snap.Prefetch, Stats: s.Snap.Stats, Telemetry: s.Snap.Telemetry}
		if s.Controller != nil {
			v.Controller = michaud(s.Controller)
		}
		old.Machines = append(old.Machines, NamedSnapshot{Name: s.Name, Snap: v})
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(old); err != nil {
		return nil, err
	}
	if len(envs) > 0 {
		if err := enc.Encode(ext); err != nil {
			return nil, err
		}
	}
	payload := buf.Bytes()
	out := []byte("EMCKPT1\n")
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload)), nil
}

// TestCheckpointV1Translation: for every shape EMCKPT1 had — the
// default policy on the uniform chip at 2, 4 and 8 cores, numa on a ring
// with a move in flight, never, and the default policy on a ring (its
// state written twice) — the EMCKPT1 file of a mid-run checkpoint
// translates to the EMCKPT2 checkpoint emsim writes today, and both it
// and its translation resume to the uninterrupted run's bytes. The
// EMCKPT1 files are rebuilt from the EMCKPT2 checkpoint by encodeV1 and
// pinned to the old writer's bytes: the SHA-256s recorded from it, and
// the frozen pre-refactor file.
func TestCheckpointV1Translation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		v1   string // SHA-256 of the old writer's file; "" = the frozen pre-refactor file
	}{
		{"uniform-2", []string{"-workload", "179.art", "-instr", "300000", "-cores", "2", "-checkpoint-every", "50000"},
			"0a52a9d4150c1c1eeb947b2897288b4863dc766ce91f02ba28ccbe7d2962a547"},
		{"uniform-4", []string{"-workload", "mst", "-instr", "200000", "-cores", "4", "-checkpoint-every", "100000"}, ""},
		{"uniform-8", []string{"-workload", "em3d", "-instr", "200000", "-cores", "8", "-checkpoint-every", "100000"},
			"fc8bd3d824b4edf357823acf84f7f82a9fabd50d193c1f5cf79db4f9e86692a1"},
		{"numa-ring", []string{"-workload", "181.mcf", "-instr", "200000", "-cores", "4", "-policy", "numa", "-topology", "ring", "-checkpoint-every", "59000"},
			"9a07b1af6b944078c9de9970c89d9f7ef3a5b3115d820fe1f98b887312237aac"},
		{"never", []string{"-workload", "181.mcf", "-instr", "200000", "-cores", "4", "-policy", "never", "-checkpoint-every", "100000"},
			"522d7748675b1bedef592d9161a7ebce4f8ed8d9392a742cb1c08ab1587fff79"},
		{"michaud-ring", []string{"-workload", "em3d", "-instr", "200000", "-cores", "4", "-topology", "ring", "-checkpoint-every", "100000"},
			"9ca7572f8b0af53e2cd151f0fae8bebe6b40c10692d3d563d1419bac0109ce50"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := mustEmsim(t, append(append([]string{}, tc.args...), "-json")...)
			v2Path := filepath.Join(t.TempDir(), "v2.ckpt")
			mustEmsim(t, append(append([]string{}, tc.args...), "-checkpoint", v2Path, "-json")...)
			ck, err := machine.LoadCheckpoint(v2Path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "numa-ring" {
				if c := ck.Machines[1].Snap.Policy.Controller; c.Target < 0 || c.Pending == 0 {
					t.Fatalf("numa checkpoint has no move in flight (target %d, pending %d)", c.Target, c.Pending)
				}
			}

			v1Path := writeV1(t, v2Path, "")
			v1, err := os.ReadFile(v1Path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.v1 == "" {
				frozen, err := os.ReadFile(filepath.Join("..", "testdata", "prerefactor", "emsim_mst.ckpt.golden"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v1, frozen) {
					t.Fatal("EMCKPT1 bytes differ from the frozen pre-refactor checkpoint")
				}
			} else if sum := sha256.Sum256(v1); hex.EncodeToString(sum[:]) != tc.v1 {
				t.Fatalf("EMCKPT1 SHA-256 %x, the old writer's %s", sum, tc.v1)
			}

			translated, err := machine.LoadCheckpoint(v1Path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(translated, ck) {
				t.Fatal("EMCKPT1 translation differs from the EMCKPT2 checkpoint emsim writes")
			}
			transPath := filepath.Join(t.TempDir(), "translated.ckpt")
			if err := machine.SaveCheckpoint(transPath, translated); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{v1Path, transPath} {
				if got := mustEmsim(t, "-resume", path, "-json"); got != full {
					t.Fatalf("resume from %s diverged from the uninterrupted run:\n--- resumed ---\n%s\n--- full ---\n%s",
						filepath.Base(path), got, full)
				}
			}
		})
	}
}

// TestCheckpointV1Refusals: an EMCKPT1 file whose two snapshots hold
// different L1 sections, or whose default-policy state on a ring
// disagrees between Snapshot.Controller and the extension envelope,
// cannot be given one meaning, so emsim -resume refuses it.
func TestCheckpointV1Refusals(t *testing.T) {
	v2Path := filepath.Join(t.TempDir(), "v2.ckpt")
	mustEmsim(t, "-workload", "em3d", "-instr", "200000", "-cores", "4", "-topology", "ring",
		"-checkpoint-every", "100000", "-json", "-checkpoint", v2Path)
	for _, tc := range []struct{ edit, want string }{
		{"split-l1", "different L1 states"},
		{"envelope", "two different policy states"},
	} {
		t.Run(tc.edit, func(t *testing.T) {
			code, _, stderr := emsim(t, "-resume", writeV1(t, v2Path, tc.edit), "-json")
			if code == 0 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want a refusal naming %q", code, stderr, tc.want)
			}
		})
	}
}
