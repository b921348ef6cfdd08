package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/mem"
)

// Zero-copy batched trace replay. BatchReader decodes EMTRACE1/EMTRACE2
// record streams directly out of an internal read window into a caller-
// owned mem.Batch: no per-record function call crosses the decoder
// boundary, no per-record allocation happens, and the version-2 CRC is
// folded over consumed window spans instead of byte-by-byte (the
// scalar Reader's countingReader checksums each byte individually,
// which profiles as most of its replay cost). The decoded stream is
// identical to Reader.Replay's — TestBatchReaderMatchesScalar pins the
// equivalence record-for-record, including the error taxonomy
// (ErrTruncated/ErrCorrupt with byte offsets).
//
// BatchReader is strict: it has no ContinueOnCorrupt resynchronisation
// mode. Salvaging damaged traces stays on the scalar Reader, where the
// byte-level bookkeeping it needs is already paid for.

// batchWindow is the read-window size. One window holds thousands of
// delta-encoded records, so refills (the only copying the reader does)
// are rare.
const batchWindow = 1 << 16

// maxRecordLen bounds an encoded record: 1 tag byte + a 10-byte varint.
const maxRecordLen = 1 + binary.MaxVarintLen64

// BatchReader replays a recorded trace in columnar batches.
type BatchReader struct {
	r       io.Reader
	buf     []byte
	pos     int   // next undecoded byte in buf
	n       int   // valid bytes in buf
	crcPos  int   // buf offset up to which crc has been folded
	off     int64 // stream offset of buf[0]
	crc     uint32
	sum     bool // version 2: checksum everything after the header
	eof     bool // underlying reader exhausted
	done    bool // end-of-trace record seen and footer validated
	version int
	last    [4]uint64
	st      ReplayStats
}

// NewBatchReader validates the header and prepares batched replay.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	br := &BatchReader{r: r, buf: make([]byte, batchWindow)}
	if err := br.fill(); err != nil {
		return nil, err
	}
	if br.n-br.pos < len(traceMagicV2) {
		return nil, &FormatError{Offset: int64(br.n), Kind: ErrTruncated, Detail: "incomplete header"}
	}
	switch string(br.buf[br.pos : br.pos+len(traceMagicV2)]) {
	case traceMagicV1:
		br.pos += len(traceMagicV1)
		br.crcPos = br.pos
		br.version = 1
		return br, nil
	case traceMagicV2:
		br.pos += len(traceMagicV2)
		if br.n-br.pos < 1 {
			return nil, &FormatError{Offset: br.offset(), Kind: ErrTruncated, Detail: "missing flags byte"}
		}
		flags := br.buf[br.pos]
		if flags != 0 {
			return nil, &FormatError{Offset: br.offset(), Kind: ErrCorrupt,
				Detail: fmt.Sprintf("unsupported flags %#x", flags)}
		}
		br.pos++
		br.crcPos = br.pos // CRC covers everything after the header
		br.sum = true
		br.version = 2
		return br, nil
	default:
		return nil, errors.New("trace: bad magic (not an EMTRACE1/EMTRACE2 file)")
	}
}

// Version returns the trace format version (1 or 2).
func (t *BatchReader) Version() int { return t.version }

// Offset returns the stream offset of the next undecoded byte.
func (t *BatchReader) offset() int64 { return t.off + int64(t.pos) }

// Stats returns what has been decoded so far; after a clean end of
// trace it carries the footer's declared event count and CRC verdict,
// mirroring Reader.ReplayWith's ReplayStats.
func (t *BatchReader) Stats() ReplayStats { return t.st }

// flushCRC folds the not-yet-checksummed consumed span into the CRC.
func (t *BatchReader) flushCRC() {
	if t.sum && t.pos > t.crcPos {
		t.crc = crc32.Update(t.crc, crc32.IEEETable, t.buf[t.crcPos:t.pos])
	}
	t.crcPos = t.pos
}

// fill slides the unconsumed tail of the window to the front and reads
// more of the stream. Refills happen once per ~64 KB of trace, so this
// is the reader's cold path.
//
//emlint:coldpath window refill, amortised over thousands of records
func (t *BatchReader) fill() error {
	t.flushCRC()
	copy(t.buf, t.buf[t.pos:t.n])
	t.off += int64(t.pos)
	t.n -= t.pos
	t.pos = 0
	t.crcPos = 0
	for t.n < len(t.buf) {
		m, err := t.r.Read(t.buf[t.n:])
		t.n += m
		if err == io.EOF {
			t.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if m > 0 {
			return nil
		}
	}
	return nil
}

// uvarint decodes one varint at the current position, which the caller
// has ensured holds a complete record or the final bytes of the stream.
// The single-byte case (the overwhelming majority after delta encoding)
// is inlined.
//
//emlint:hotpath
func (t *BatchReader) uvarint() (uint64, bool, error) {
	if t.pos < t.n {
		if b := t.buf[t.pos]; b < 0x80 {
			t.pos++
			return uint64(b), true, nil
		}
	}
	v, n := binary.Uvarint(t.buf[t.pos:t.n])
	if n > 0 {
		t.pos += n
		return v, true, nil
	}
	if n == 0 { // ran off the window: truncated (caller pre-filled)
		return 0, false, t.errVarintTruncated()
	}
	return 0, false, t.errVarintOverflow()
}

// Error constructors live outside the decode loop: building a
// *FormatError boxes values, and every one of these is terminal — a
// BatchReader returns at most one of them per trace.

//emlint:coldpath terminal error path
func (t *BatchReader) errVarintTruncated() error {
	return &FormatError{Offset: t.off + int64(t.n), Kind: ErrTruncated,
		Detail: fmt.Sprintf("stream ended inside record starting at byte %d", t.offset()-1)}
}

//emlint:coldpath terminal error path
func (t *BatchReader) errVarintOverflow() error {
	return &FormatError{Offset: t.offset() - 1, Kind: ErrCorrupt,
		Detail: "record: varint overflows a 64-bit value"}
}

//emlint:coldpath terminal error path
func (t *BatchReader) errNoTerminator() error {
	return &FormatError{Offset: t.offset(), Kind: ErrTruncated,
		Detail: "stream ended before end-of-trace record"}
}

//emlint:coldpath terminal error path
func (t *BatchReader) errBadTag(tag byte) error {
	return &FormatError{Offset: t.offset() - 1, Kind: ErrCorrupt,
		Detail: fmt.Sprintf("unknown record tag %#x", tag)}
}

// NextBatch appends decoded records to b until the batch is full or the
// trace ends. It returns the number of records appended; err is io.EOF
// after the end-of-trace record and a valid footer (possibly alongside
// a final partial batch), or a *FormatError on damage. The batch's
// backing arrays are the caller's — reuse them across calls via Reset.
//
//emlint:hotpath
func (t *BatchReader) NextBatch(b *mem.Batch) (int, error) {
	if t.done {
		return 0, io.EOF
	}
	appended := 0
	for !b.Full() {
		if t.n-t.pos < maxRecordLen && !t.eof {
			if err := t.fill(); err != nil {
				return appended, err
			}
		}
		if t.pos >= t.n {
			return appended, t.errNoTerminator()
		}
		tag := t.buf[t.pos]
		t.pos++
		switch {
		case tag <= 3:
			u, ok, err := t.uvarint()
			if !ok {
				return appended, err
			}
			addr := t.last[tag] + uint64(unzigzag(u))
			t.last[tag] = addr
			b.Append(mem.Addr(addr), mem.Kind(tag))
		case tag == 0xFE:
			u, ok, err := t.uvarint()
			if !ok {
				return appended, err
			}
			b.AppendInstr(u)
		case tag == 0xFF:
			t.done = true
			return appended, t.finish()
		default:
			return appended, t.errBadTag(tag)
		}
		appended++
		t.st.Events++
	}
	return appended, nil
}

// finish validates the footer after the end-of-trace record and returns
// io.EOF on success, mirroring Reader.finish's strict-mode checks.
//
//emlint:coldpath runs once per trace, after the terminator record
func (t *BatchReader) finish() error {
	if t.version == 1 {
		return io.EOF
	}
	if t.n-t.pos < maxRecordLen+4 && !t.eof {
		if err := t.fill(); err != nil {
			return err
		}
	}
	declared, ok, err := t.uvarint()
	if !ok {
		var fe *FormatError
		if errors.As(err, &fe) {
			fe.Detail = "stream ended inside footer event count"
		}
		return err
	}
	t.st.DeclaredEvents = declared
	t.flushCRC() // the CRC bytes themselves are not part of the checksum
	if t.n-t.pos < 4 {
		return &FormatError{Offset: t.off + int64(t.n), Kind: ErrTruncated,
			Detail: "stream ended inside footer CRC"}
	}
	got := binary.LittleEndian.Uint32(t.buf[t.pos : t.pos+4])
	t.pos += 4
	if got != t.crc {
		return &FormatError{Offset: t.offset() - 4, Kind: ErrCorrupt,
			Detail: fmt.Sprintf("CRC mismatch: stream %#08x, footer %#08x", t.crc, got)}
	}
	t.st.CRCVerified = true
	if declared != t.st.Events {
		return &FormatError{Offset: t.offset(), Kind: ErrCorrupt,
			Detail: fmt.Sprintf("event count mismatch: replayed %d, footer declares %d", t.st.Events, declared)}
	}
	return io.EOF
}

// ReplayBatches streams the whole trace into sink in batches of b's
// capacity, returning the event count. It is the batched counterpart of
// Reader.Replay; b may be nil to use a DefaultBatchLen batch.
func (t *BatchReader) ReplayBatches(sink mem.BatchSink, b *mem.Batch) (uint64, error) {
	if b == nil {
		b = mem.NewBatch(0)
	}
	for {
		b.Reset()
		_, err := t.NextBatch(b)
		if b.Len() > 0 {
			sink.AccessBatch(b)
		}
		if err == io.EOF {
			return t.st.Events, nil
		}
		if err != nil {
			return t.st.Events, err
		}
	}
}

// DriveBatched is Drive delivering through the batched sink interface:
// references are packed into a reusable batch (access + instruction
// record pairs) and handed to sink.AccessBatch, eliminating the two
// interface calls per reference that Drive pays. The record stream is
// identical to Drive's.
func DriveBatched(g Generator, sink mem.BatchSink, n uint64, shift uint, instrPerRef uint64) {
	b := mem.NewBatch(0)
	for i := uint64(0); i < n; {
		b.Reset()
		// Two records per reference: stop one pair short of capacity.
		for i < n && b.Len()+2 <= b.Cap() {
			e := g.Next()
			b.Append(mem.AddrOf(mem.Line(e), shift), mem.Load)
			if instrPerRef > 0 {
				b.AppendInstr(instrPerRef)
			}
			i++
		}
		sink.AccessBatch(b)
	}
}
