package machine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/ioutilx"
)

// Checkpoint file format ("EMCKPT2"): an 8-byte magic, a uvarint payload
// length, one gob-encoded Checkpoint, and a little-endian CRC32 (IEEE)
// of the payload. The magic is the format and semantics version the
// reader checks; EMCKPT1 files, the previous version, are read through
// translateV1. The CRC makes a half-written or bit-rotted checkpoint a
// detected error instead of a silently wrong resume; SaveCheckpoint
// additionally writes through a temp file + rename so an interrupted
// save never clobbers the previous good checkpoint.

const checkpointMagic = "EMCKPT2\n"

// NamedSnapshot pairs a machine snapshot with the role it plays in the
// run (emsim checkpoints both the "normal" baseline and the "migration"
// machine, which advance in lockstep over one input pass).
type NamedSnapshot struct {
	Name string
	Snap Snapshot
}

// Checkpoint is everything needed to resume an interrupted simulation:
// the input identity (workload or trace file, instruction budget, core
// count, scenario), how many input events the machines have consumed,
// the group's shared L1 front end, and the machine snapshots. Resume
// rebuilds the machines from the same configuration, restores the
// state, and re-drives the deterministic input with the first Events
// events discarded.
type Checkpoint struct {
	// Workload is the workload name ("" when driven from a trace).
	Workload string
	// Replay is the trace path driving the run ("" when synthetic).
	Replay string
	// Instr is the instruction budget of the original run.
	Instr uint64
	// Cores is the migration machine's core count.
	Cores int
	// Policy and Topology name the run's scenario ("" means the michaud
	// default / the uniform chip).
	Policy, Topology string
	// Events is the number of sink events (Access + Instr calls) the
	// machines had consumed when the snapshot was taken.
	Events uint64

	// IL1 and DL1 are the L1 front end every machine of the group
	// shares (§2.3 mirrors the L1s, so one copy is simulated).
	IL1, DL1 cache.SetAssocState
	Machines []NamedSnapshot
}

// Machine returns the named snapshot, or an error.
func (c *Checkpoint) Machine(name string) (*Snapshot, error) {
	for i := range c.Machines {
		if c.Machines[i].Name == name {
			return &c.Machines[i].Snap, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: no machine named %q", name)
}

// Capture returns a checkpoint of the group's state: its L1 section
// once, and one snapshot per member, named by names in member order.
// The caller fills in the run's identity.
func (g *Group) Capture(names ...string) (*Checkpoint, error) {
	if len(names) != len(g.ms) {
		return nil, fmt.Errorf("machine: %d names for a group of %d", len(names), len(g.ms))
	}
	ck := &Checkpoint{IL1: g.il1.State(), DL1: g.dl1.State()}
	for i, m := range g.ms {
		s, err := m.Snapshot()
		if err != nil {
			return nil, err
		}
		ck.Machines = append(ck.Machines, NamedSnapshot{Name: names[i], Snap: s})
	}
	return ck, nil
}

// Restore loads ck into the group: the L1 section, then the snapshot
// named names[i] into member i. The group must have been built from
// the configurations that produced ck; after an error it is unusable
// (see Machine.Restore).
func (g *Group) Restore(ck *Checkpoint, names ...string) error {
	if len(names) != len(g.ms) {
		return fmt.Errorf("machine: %d names for a group of %d", len(names), len(g.ms))
	}
	if err := g.il1.SetState(ck.IL1); err != nil {
		return fmt.Errorf("machine: IL1: %w", err)
	}
	if err := g.dl1.SetState(ck.DL1); err != nil {
		return fmt.Errorf("machine: DL1: %w", err)
	}
	for i, m := range g.ms {
		s, err := ck.Machine(names[i])
		if err != nil {
			return err
		}
		if err := m.Restore(*s); err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpoint serialises ck to w.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(checkpointMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(payload.Len()))
	bw.Write(tmp[:n])
	bw.Write(payload.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	bw.Write(crc[:])
	return bw.Flush()
}

// ReadCheckpoint deserialises a checkpoint, verifying the magic, length
// and CRC before decoding. An EMCKPT1 payload is translated to the
// current shape (see translateV1).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(magic) != checkpointMagic && string(magic) != checkpointMagicV1 {
		return nil, fmt.Errorf("checkpoint: bad magic %q", magic)
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload length: %w", err)
	}
	const maxPayload = 1 << 32
	if size > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds %d", size, uint64(maxPayload))
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated payload: %w", err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(br, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated CRC: %w", err)
	}
	want := binary.LittleEndian.Uint32(crcBytes[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch: computed %08x, stored %08x", got, want)
	}
	if string(magic) == checkpointMagicV1 {
		return translateV1(payload)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &ck, nil
}

// SaveCheckpoint atomically writes ck to path (temp file + rename), so a
// crash mid-save leaves any previous checkpoint intact.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := f.Name()
	if err := writeAndClose(f, ck); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// writeAndClose writes ck to f, syncs and closes it, keeping the first
// error. The close happens here rather than deferred in SaveCheckpoint
// because the rename that publishes the checkpoint must only run after
// a clean close.
func writeAndClose(f *os.File, ck *Checkpoint) (err error) {
	defer ioutilx.CloseKeeping(&err, f)
	if err := WriteCheckpoint(f, ck); err != nil {
		return err
	}
	return f.Sync()
}

// LoadCheckpoint reads a checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
