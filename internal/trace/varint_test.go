package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"
)

// varintBytes encodes v as a varint of exactly length bytes, padding a
// shorter minimal encoding with zero-valued continuation groups (a
// non-minimal encoding both decoders accept).
func varintBytes(v uint64, length int) []byte {
	b := binary.AppendUvarint(nil, v)
	if len(b) > length {
		panic(fmt.Sprintf("varintBytes: %d needs %d bytes, not %d", v, len(b), length))
	}
	for len(b) < length {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// v1Trace frames a record body as a version-1 trace.
func v1Trace(body []byte) []byte {
	return append(append([]byte(traceMagicV1), body...), 0xFF)
}

// v2Trace frames a record body as a version-2 trace with a valid footer.
func v2Trace(body []byte, events uint64) []byte {
	tail := append(append(append([]byte(nil), body...), 0xFF), binary.AppendUvarint(nil, events)...)
	out := append(append([]byte(traceMagicV2), 0), tail...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(tail))
}

// readers are the io.Reader shapes a trace reaches the decoders through:
// whole reads, and reads that return a byte or half a buffer at a time.
var readers = map[string]func(io.Reader) io.Reader{
	"full":     func(r io.Reader) io.Reader { return r },
	"one-byte": iotest.OneByteReader,
	"half":     iotest.HalfReader,
}

// checkDecodersAgree replays data through the strict scalar Reader and
// the BatchReader and requires the same records and event count, or the
// same error kind at the same byte offset.
func checkDecodersAgree(t *testing.T, data []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	var scalar recSink
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	scalarEvents, scalarErr := r.Replay(&scalar)

	var batched recSink
	br, err := NewBatchReader(wrap(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	batchEvents, batchErr := br.ReplayBatches(&batched, nil)
	if batchErr == io.EOF {
		batchErr = nil
	}

	if (scalarErr == nil) != (batchErr == nil) {
		t.Fatalf("scalar error %v, batched error %v", scalarErr, batchErr)
	}
	if scalarErr != nil {
		var se, be *FormatError
		if !errors.As(scalarErr, &se) || !errors.As(batchErr, &be) {
			t.Fatalf("untyped errors: scalar %v, batched %v", scalarErr, batchErr)
		}
		if se.Kind != be.Kind || se.Offset != be.Offset {
			t.Fatalf("scalar error %v, batched error %v", scalarErr, batchErr)
		}
	}
	if batchEvents != scalarEvents || br.Stats() != r.Stats() {
		t.Fatalf("batched %d events %+v, scalar %d events %+v", batchEvents, br.Stats(), scalarEvents, r.Stats())
	}
	if !bytes.Equal(batched.kinds, scalar.kinds) {
		t.Fatal("kind streams diverge")
	}
	for i := range scalar.addrs {
		if batched.addrs[i] != scalar.addrs[i] {
			t.Fatalf("record %d: batched %#x, scalar %#x", i, batched.addrs[i], scalar.addrs[i])
		}
	}
}

// varintCase is one varint payload under test.
type varintCase struct {
	name    string
	payload []byte
}

// varintCases returns, for every length 1-10, the smallest and largest
// value of that minimal length and a non-minimal encoding of 5, plus
// the 10-byte encodings that overflow 64 bits and an 11-byte varint.
func varintCases() []varintCase {
	var cs []varintCase
	for l := 1; l <= binary.MaxVarintLen64; l++ {
		lo := uint64(1) << (7 * (l - 1))
		if l == 1 {
			lo = 0
		}
		hi := ^uint64(0)
		if l < binary.MaxVarintLen64 {
			hi = 1<<(7*l) - 1
		}
		cs = append(cs,
			varintCase{fmt.Sprintf("len%d/min", l), varintBytes(lo, l)},
			varintCase{fmt.Sprintf("len%d/max", l), varintBytes(hi, l)},
			varintCase{fmt.Sprintf("len%d/padded", l), varintBytes(5, l)})
	}
	over := append(bytes.Repeat([]byte{0xFF}, 9), 0x02)
	long := append(bytes.Repeat([]byte{0x80}, 10), 0x00)
	return append(cs, varintCase{"overflow/last-byte", over}, varintCase{"overflow/11-bytes", long})
}

// TestVarintSeams decodes a varint of every length, minimal, maximal and
// padded, as an access delta and as an instruction count, with fewer
// than 8 bytes left in the window (the varint ends the body) and with
// at least 8 (eight one-byte records follow), in both trace versions,
// whole and cut inside the varint, through whole and short reads. The
// batched decoder must agree with the strict scalar reader on every
// record, every event count, and every error's kind and offset.
func TestVarintSeams(t *testing.T) {
	filler := bytes.Repeat([]byte{0xFE, 0x01}, 8)
	for _, c := range varintCases() {
		for _, tag := range []byte{1, 0xFE} {
			for _, pos := range []string{"tail", "interior"} {
				body := append([]byte{tag}, c.payload...)
				events := uint64(1)
				if pos == "interior" {
					body = append(body, filler...)
					events += uint64(len(filler) / 2)
				}
				traces := map[string][]byte{
					"v1":        v1Trace(body),
					"v2":        v2Trace(body, events),
					"truncated": append([]byte(traceMagicV1), body[:len(c.payload)]...),
				}
				for version, data := range traces {
					for rname, wrap := range readers {
						t.Run(fmt.Sprintf("%s/tag%#x/%s/%s/%s", c.name, tag, pos, version, rname), func(t *testing.T) {
							checkDecodersAgree(t, data, wrap)
						})
					}
				}
			}
		}
	}
}

// TestVarintAcrossRefill puts a record of each varint length at every
// offset from 12 bytes before to 1 byte after the end of the first 64 KB
// read window, so the record straddles the refill boundary or sits
// right against it.
func TestVarintAcrossRefill(t *testing.T) {
	for _, l := range []int{1, 2, 5, 8, 9, 10} {
		for s := -1; s <= 12; s++ {
			// Two-byte filler records (one three-byte record to fix the
			// parity) put the record's tag at stream offset 64K - s.
			fill := batchWindow - s - len(traceMagicV2) - 1
			var body []byte
			events := uint64(0)
			if fill%2 == 1 {
				body = append(body, 0xFE, 0x81, 0x01)
				fill -= 3
				events++
			}
			body = append(body, bytes.Repeat([]byte{0xFE, 0x01}, fill/2)...)
			events += uint64(fill / 2)
			body = append(body, 0xFE)
			body = append(body, varintBytes(1<<(7*(l-1)), l)...)
			body = append(body, 0x02, 0x7F, 0xFE, 0x03)
			events += 3
			data := v2Trace(body, events)
			for rname, wrap := range readers {
				t.Run(fmt.Sprintf("len%d/at-%d/%s", l, s, rname), func(t *testing.T) {
					checkDecodersAgree(t, data, wrap)
				})
			}
		}
	}
}
