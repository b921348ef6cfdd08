package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/mem"
)

// recSink collects every delivered record for equivalence checks.
type recSink struct {
	addrs []mem.Addr
	kinds []uint8
}

func (r *recSink) Access(a mem.Addr, k mem.Kind) {
	r.addrs = append(r.addrs, a)
	r.kinds = append(r.kinds, uint8(k))
}

func (r *recSink) Instr(n uint64) {
	r.addrs = append(r.addrs, mem.Addr(n))
	r.kinds = append(r.kinds, mem.KindInstr)
}

func (r *recSink) AccessBatch(b *mem.Batch) { mem.DeliverBatch(b, r) }

// recordMixed writes a trace exercising every record kind, large deltas
// (multi-byte varints) and instruction batches.
func recordMixed(t *testing.T, refs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := NewCircular(777)
	for i := 0; i < refs; i++ {
		line := mem.Line(g.Next())
		switch i % 7 {
		case 0:
			w.Access(mem.AddrOf(line, 6), mem.IFetch)
		case 1:
			w.Access(mem.AddrOf(line, 6), mem.Store)
		case 2:
			w.Access(mem.AddrOf(line<<20, 6), mem.Load) // large delta
		case 3:
			w.Access(mem.AddrOf(line, 6), mem.PtrLoad)
		default:
			w.Access(mem.AddrOf(line, 6), mem.Load)
		}
		if i%5 == 0 {
			w.Instr(uint64(i%300) + 1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchReaderMatchesScalar: BatchReader must decode the exact
// record stream the scalar Reader does, with matching ReplayStats.
func TestBatchReaderMatchesScalar(t *testing.T) {
	for _, refs := range []int{0, 1, 100, 50_000} {
		raw := recordMixed(t, refs)

		var scalar recSink
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replay(&scalar); err != nil {
			t.Fatal(err)
		}
		sst := r.Stats()

		var batched recSink
		br, err := NewBatchReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		// A deliberately awkward batch size so record pairs straddle
		// batch boundaries.
		events, err := br.ReplayBatches(&batched, mem.NewBatch(129))
		if err != nil {
			t.Fatal(err)
		}

		if events != sst.Events {
			t.Fatalf("refs=%d: batched replayed %d events, scalar %d", refs, events, sst.Events)
		}
		if br.Stats() != sst {
			t.Errorf("refs=%d: stats diverge: batched %+v scalar %+v", refs, br.Stats(), sst)
		}
		if !bytes.Equal(batched.kinds, scalar.kinds) {
			t.Fatalf("refs=%d: kind streams diverge", refs)
		}
		for i := range scalar.addrs {
			if batched.addrs[i] != scalar.addrs[i] {
				t.Fatalf("refs=%d: record %d: batched addr %#x, scalar %#x",
					refs, i, batched.addrs[i], scalar.addrs[i])
			}
		}
	}
}

// TestBatchReaderErrorTaxonomy: damage classification must match the
// scalar reader's — truncation and corruption both as
// *FormatError wrapping the right sentinel.
func TestBatchReaderErrorTaxonomy(t *testing.T) {
	raw := recordMixed(t, 1000)

	check := func(name string, mangle func([]byte) []byte, want error) {
		t.Helper()
		b := mangle(append([]byte(nil), raw...))
		br, err := NewBatchReader(bytes.NewReader(b))
		if err == nil {
			var sink recSink
			_, err = br.ReplayBatches(&sink, nil)
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error is not a *FormatError: %v", name, err)
		}
		// The scalar reader must agree on the category.
		r, err2 := NewReader(bytes.NewReader(b))
		if err2 == nil {
			var sink recSink
			_, err2 = r.Replay(&sink)
		}
		if !errors.Is(err2, want) {
			t.Errorf("%s: scalar reader disagrees: got %v, want %v", name, err2, want)
		}
	}

	check("truncated-mid-body", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated)
	check("truncated-footer", func(b []byte) []byte { return b[:len(b)-2] }, ErrTruncated)
	check("bad-tag", func(b []byte) []byte { b[100] = 0xAB; return b }, ErrCorrupt)
	check("bad-crc", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, ErrCorrupt)
}

// TestBatchReaderV1: version-1 traces (no footer) replay batched too.
func TestBatchReaderV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(traceMagicV1)
	// One Load of address 0x40 (delta 0x40<<1 zigzag = 0x80: two bytes),
	// one instr record, then the terminator.
	buf.Write([]byte{1, 0x80, 0x01, 0xFE, 5, 0xFF})
	br, err := NewBatchReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if br.Version() != 1 {
		t.Fatalf("version = %d, want 1", br.Version())
	}
	var sink recSink
	events, err := br.ReplayBatches(&sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if events != 2 || len(sink.kinds) != 2 || sink.addrs[0] != 0x40 || sink.addrs[1] != 5 {
		t.Fatalf("v1 replay: events=%d records=%v/%v", events, sink.addrs, sink.kinds)
	}
}

// TestBatchReaderSteadyStateZeroAllocs: NextBatch must not allocate
// once the reader and batch exist.
func TestBatchReaderSteadyStateZeroAllocs(t *testing.T) {
	raw := recordMixed(t, 200_000)
	br, err := NewBatchReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b := mem.NewBatch(0)
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < 40; n++ {
			b.Reset()
			if _, err := br.NextBatch(b); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("NextBatch allocates %v times over 40 batches; the decode loop must stay allocation-free", allocs)
	}
}

// TestDriveBatchedMatchesDrive: the batched generator driver must emit
// the record stream Drive emits.
func TestDriveBatchedMatchesDrive(t *testing.T) {
	var scalar, batched recSink
	Drive(NewCircular(1000), &scalar, 5000, 6, 3)
	DriveBatched(NewCircular(1000), &batched, 5000, 6, 3)
	if !bytes.Equal(scalar.kinds, batched.kinds) {
		t.Fatal("kind streams diverge")
	}
	for i := range scalar.addrs {
		if scalar.addrs[i] != batched.addrs[i] {
			t.Fatalf("record %d: %#x vs %#x", i, scalar.addrs[i], batched.addrs[i])
		}
	}
	// And with instrPerRef == 0 (no instruction records).
	scalar, batched = recSink{}, recSink{}
	Drive(NewCircular(64), &scalar, 100, 6, 0)
	DriveBatched(NewCircular(64), &batched, 100, 6, 0)
	if !bytes.Equal(scalar.kinds, batched.kinds) {
		t.Fatal("kind streams diverge with instrPerRef=0")
	}
}
