package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/mem"
)

// Trace file format (version 2, "EMTRACE2"):
//
//	header  = 8-byte magic "EMTRACE2" + 1 flags byte (reserved, 0)
//	body    = one record per event
//	record  = kind-tag (1 byte) + payload
//	          tag 0..3  = access of mem.Kind(tag), payload = zigzag delta varint
//	          tag 0xFE  = instruction batch, payload = count varint
//	          tag 0xFF  = end of trace
//	footer  = event count varint + 4-byte little-endian CRC32 (IEEE)
//
// Addresses are delta-encoded (zig-zag) against the previous address of
// the same kind, which compresses the strided and looping streams this
// repository produces by roughly 4-8x versus raw 64-bit addresses.
//
// The CRC covers every byte after the header up to and including the
// event-count varint (so a corrupted count is detected too). The explicit
// end-of-trace record plus the footer make truncation *detectable*: a
// stream that ends before the 0xFF terminator and a complete footer is
// reported as ErrTruncated, never as a silent success.
//
// Version 1 ("EMTRACE1") files — the same record stream with no flags
// byte and no footer — are still readable; for them too, EOF before the
// 0xFF terminator is ErrTruncated.
const (
	traceMagicV1 = "EMTRACE1"
	traceMagicV2 = "EMTRACE2"
)

// FormatVersion is the current trace/event-stream format version (the
// one NewWriter emits). It participates in the service layer's cache
// keys: a result computed from one event-stream encoding must never be
// served for a request made under another.
const FormatVersion = 2

// Sentinel errors for damaged traces. Errors returned by BatchReader
// methods match these with errors.Is; the full error carries the byte offset at
// which the damage was detected.
var (
	// ErrTruncated reports a trace that ended before its end-of-trace
	// terminator (and, for version 2, its footer) was seen.
	ErrTruncated = errors.New("trace truncated")
	// ErrCorrupt reports structurally damaged trace content: an unknown
	// record tag, an overlong varint, a CRC mismatch, or an event-count
	// mismatch.
	ErrCorrupt = errors.New("trace corrupt")
)

// FormatError is the concrete error type for damaged traces. It wraps
// ErrTruncated or ErrCorrupt (use errors.Is) and records the byte offset
// from the start of the stream at which the damage was detected.
type FormatError struct {
	// Offset is the byte offset (from the start of the stream, header
	// included) where the problem was detected.
	Offset int64
	// Kind is ErrTruncated or ErrCorrupt.
	Kind error
	// Detail describes the specific damage.
	Detail string
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("trace: %v at byte %d: %s", e.Kind, e.Offset, e.Detail)
}

// Unwrap lets errors.Is match ErrTruncated / ErrCorrupt.
func (e *FormatError) Unwrap() error { return e.Kind }

// Writer records a reference stream to an io.Writer in the version-2
// format. It implements mem.Sink, so a workload can be traced by running
// it into a Writer; the trace replays later through BatchReader without
// re-running the workload.
type Writer struct {
	w      *bufio.Writer
	last   [4]uint64 // previous address per kind
	buf    [binary.MaxVarintLen64 + 1]byte
	events uint64
	crc    uint32
	err    error
}

// NewWriter starts a version-2 trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	if w == nil {
		return nil, errors.New("trace: nil writer")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(traceMagicV2); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(0); err != nil { // flags: none defined yet
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// write emits raw record bytes, folding them into the running CRC.
func (t *Writer) write(p []byte) {
	t.crc = crc32.Update(t.crc, crc32.IEEETable, p)
	if _, err := t.w.Write(p); err != nil {
		t.err = err
	}
}

// Access implements mem.Sink.
func (t *Writer) Access(addr mem.Addr, kind mem.Kind) {
	if t.err != nil || kind > 3 {
		return
	}
	t.buf[0] = byte(kind)
	d := int64(uint64(addr) - t.last[kind])
	n := binary.PutUvarint(t.buf[1:], zigzag(d))
	t.last[kind] = uint64(addr)
	t.write(t.buf[:n+1])
	t.events++
}

// Instr implements mem.Sink.
func (t *Writer) Instr(n uint64) {
	if t.err != nil {
		return
	}
	t.buf[0] = 0xFE
	l := binary.PutUvarint(t.buf[1:], n)
	t.write(t.buf[:l+1])
	t.events++
}

// Close terminates the trace: end-of-trace record, event count, CRC,
// flush. A trace without a successful Close replays as ErrTruncated.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	t.buf[0] = 0xFF
	n := binary.PutUvarint(t.buf[1:], t.events)
	t.write(t.buf[:n+1])
	if t.err != nil {
		return t.err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], t.crc)
	if _, err := t.w.Write(crcb[:]); err != nil {
		return err
	}
	return t.w.Flush()
}

// Events returns the number of records written.
func (t *Writer) Events() uint64 { return t.events }

var _ mem.Sink = (*Writer)(nil)

// ReplayStats reports what a replay delivered and what its footer
// declared.
type ReplayStats struct {
	// Events is the number of records delivered to the sink.
	Events uint64
	// DeclaredEvents is the footer's event count (version 2; 0 for
	// version 1).
	DeclaredEvents uint64
	// CRCVerified reports that a version-2 footer was read and its CRC
	// matched the stream content.
	CRCVerified bool
}
