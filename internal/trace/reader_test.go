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

// Reader is the strict record-at-a-time trace decoder: the reference
// BatchReader is checked against (TestBatchReaderMatchesScalar,
// FuzzReplay). It reads byte by byte and checksums each byte on its
// own, so it is slow, and simple enough to trust.
type Reader struct {
	r       *countingReader
	last    [4]uint64
	version int
	st      ReplayStats
}

// countingReader wraps a bufio.Reader, tracking the byte offset consumed
// and (when sum is set) a running CRC32 of consumed bytes.
type countingReader struct {
	br  *bufio.Reader
	n   int64
	crc uint32
	sum bool
}

// ReadByte implements io.ByteReader.
func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return b, err
	}
	c.n++
	if c.sum {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, []byte{b})
	}
	return b, nil
}

// readFull fills p, updating offset and CRC.
func (c *countingReader) readFull(p []byte) error {
	if _, err := io.ReadFull(c.br, p); err != nil {
		return err
	}
	c.n += int64(len(p))
	if c.sum {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	}
	return nil
}

// NewReader validates the header and prepares replay.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &countingReader{br: bufio.NewReaderSize(r, 1<<16)}
	head := make([]byte, len(traceMagicV2))
	if err := cr.readFull(head); err != nil {
		return nil, &FormatError{Offset: cr.n, Kind: ErrTruncated, Detail: "incomplete header"}
	}
	switch string(head) {
	case traceMagicV1:
		return &Reader{r: cr, version: 1}, nil
	case traceMagicV2:
		flags, err := cr.ReadByte()
		if err != nil {
			return nil, &FormatError{Offset: cr.n, Kind: ErrTruncated, Detail: "missing flags byte"}
		}
		if flags != 0 {
			return nil, &FormatError{Offset: cr.n - 1, Kind: ErrCorrupt,
				Detail: fmt.Sprintf("unsupported flags %#x", flags)}
		}
		cr.sum = true // CRC covers everything after the header
		return &Reader{r: cr, version: 2}, nil
	default:
		return nil, errors.New("trace: bad magic (not an EMTRACE1/EMTRACE2 file)")
	}
}

// Version returns the trace format version (1 or 2).
func (t *Reader) Version() int { return t.version }

// Offset returns the number of bytes consumed so far.
func (t *Reader) Offset() int64 { return t.r.n }

// Stats returns what the replay decoded, as BatchReader.Stats does.
func (t *Reader) Stats() ReplayStats { return t.st }

// Replay streams every event into sink and returns the event count. It
// stops at the end-of-trace marker; a stream that ends without one
// returns ErrTruncated, and structural damage returns ErrCorrupt (both
// as *FormatError with the byte offset).
func (t *Reader) Replay(sink mem.Sink) (uint64, error) {
	for {
		tagOff := t.r.n
		tag, err := t.r.ReadByte()
		if err != nil {
			return t.st.Events, &FormatError{Offset: tagOff, Kind: ErrTruncated,
				Detail: "stream ended before end-of-trace record"}
		}
		switch {
		case tag == 0xFF:
			return t.st.Events, t.finish()
		case tag == 0xFE:
			n, err := binary.ReadUvarint(t.r)
			if err != nil {
				return t.st.Events, t.varintErr(tagOff, "instr record", err)
			}
			sink.Instr(n)
		case tag <= 3:
			u, err := binary.ReadUvarint(t.r)
			if err != nil {
				return t.st.Events, t.varintErr(tagOff, "access record", err)
			}
			addr := t.last[tag] + uint64(unzigzag(u))
			t.last[tag] = addr
			sink.Access(mem.Addr(addr), mem.Kind(tag))
		default:
			return t.st.Events, &FormatError{Offset: tagOff, Kind: ErrCorrupt,
				Detail: fmt.Sprintf("unknown record tag %#x", tag)}
		}
		t.st.Events++
	}
}

// varintErr classifies a varint read failure: EOF is truncation,
// overflow is corruption.
func (t *Reader) varintErr(off int64, what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return &FormatError{Offset: t.r.n, Kind: ErrTruncated,
			Detail: fmt.Sprintf("stream ended inside %s starting at byte %d", what, off)}
	}
	return &FormatError{Offset: off, Kind: ErrCorrupt, Detail: fmt.Sprintf("%s: %v", what, err)}
}

// finish validates the footer after the end-of-trace record.
func (t *Reader) finish() error {
	if t.version == 1 {
		return nil
	}
	declared, err := binary.ReadUvarint(t.r)
	if err != nil {
		return &FormatError{Offset: t.r.n, Kind: ErrTruncated, Detail: "stream ended inside footer event count"}
	}
	t.st.DeclaredEvents = declared
	// The CRC bytes themselves are not part of the checksum.
	t.r.sum = false
	want := t.r.crc
	var crcb [4]byte
	if err := t.r.readFull(crcb[:]); err != nil {
		return &FormatError{Offset: t.r.n, Kind: ErrTruncated, Detail: "stream ended inside footer CRC"}
	}
	if got := binary.LittleEndian.Uint32(crcb[:]); got != want {
		return &FormatError{Offset: t.r.n - 4, Kind: ErrCorrupt,
			Detail: fmt.Sprintf("CRC mismatch: stream %#08x, footer %#08x", want, got)}
	}
	t.st.CRCVerified = true
	if declared != t.st.Events {
		return &FormatError{Offset: t.r.n, Kind: ErrCorrupt,
			Detail: fmt.Sprintf("event count mismatch: replayed %d, footer declares %d", t.st.Events, declared)}
	}
	return nil
}
