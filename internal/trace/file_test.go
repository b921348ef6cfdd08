package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestTraceRoundTrip: record a mixed stream, replay it, require an exact
// event-for-event match.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}

	type event struct {
		addr  mem.Addr
		kind  mem.Kind
		instr uint64
	}
	var want []event
	rng := NewRNG(4)
	for i := 0; i < 50_000; i++ {
		switch rng.Uint64n(5) {
		case 0:
			n := rng.Uint64n(100) + 1
			want = append(want, event{instr: n})
			w.Instr(n)
		default:
			a := mem.Addr(rng.Uint64n(1 << 40))
			k := mem.Kind(rng.Uint64n(4))
			want = append(want, event{addr: a, kind: k})
			w.Access(a, k)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != uint64(len(want)) {
		t.Fatalf("writer events %d, want %d", w.Events(), len(want))
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []event
	sink := struct{ mem.Sink }{}
	_ = sink
	n, err := r.Replay(sinkFunc{
		access: func(a mem.Addr, k mem.Kind) { got = append(got, event{addr: a, kind: k}) },
		instr:  func(n uint64) { got = append(got, event{instr: n}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(want)) || len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

type sinkFunc struct {
	access func(mem.Addr, mem.Kind)
	instr  func(uint64)
}

func (s sinkFunc) Access(a mem.Addr, k mem.Kind) { s.access(a, k) }
func (s sinkFunc) Instr(n uint64)                { s.instr(n) }

// TestTraceCompression: looping/strided streams must compress well
// against raw 9-byte records.
func TestTraceCompression(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	g := NewCircular(4000)
	const refs = 100_000
	for i := 0; i < refs; i++ {
		w.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
	}
	w.Close()
	perRef := float64(buf.Len()) / refs
	if perRef > 3.2 { // 1 tag byte + 2-byte varint for the 64-byte delta
		t.Fatalf("%.2f bytes per reference on a circular stream, want ≤ 3.2", perRef)
	}
}

// TestTraceBadMagic: corrupt headers are rejected.
func TestTraceBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestTraceTruncated: replaying a trace truncated at ANY byte offset
// must return ErrTruncated (or a header error for cuts inside the
// header) — never a silent success.
func TestTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(1<<30, mem.Load)
	w.Instr(17)
	w.Access(1<<31, mem.Store)
	w.Close()
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		r, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			// Cuts inside the header fail at NewReader; those within the
			// magic report a generic header error, later ones truncation.
			continue
		}
		_, err = r.Replay(mem.NullSink{})
		if err == nil {
			t.Fatalf("truncation at byte %d/%d replayed as success", cut, len(raw))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at byte %d: got %v, want ErrTruncated", cut, err)
		}
	}
	// The untruncated trace still replays cleanly.
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Replay(mem.NullSink{}); err != nil || n != 3 {
		t.Fatalf("full replay: n=%d err=%v", n, err)
	}
}

// writeV1 hand-crafts a version-1 trace (no flags byte, no footer) so
// backward-compatible reading stays covered without a v1 writer.
func writeV1(events []func(buf *bytes.Buffer), terminated bool) []byte {
	var buf bytes.Buffer
	buf.WriteString("EMTRACE1")
	for _, ev := range events {
		ev(&buf)
	}
	if terminated {
		buf.WriteByte(0xFF)
	}
	return buf.Bytes()
}

func v1Access(kind mem.Kind, delta int64) func(*bytes.Buffer) {
	return func(buf *bytes.Buffer) {
		var tmp [binary.MaxVarintLen64]byte
		buf.WriteByte(byte(kind))
		n := binary.PutUvarint(tmp[:], zigzag(delta))
		buf.Write(tmp[:n])
	}
}

// TestTraceV1Compat: version-1 traces still replay, and a v1 stream
// without the 0xFF terminator is ErrTruncated, not a silent success.
func TestTraceV1Compat(t *testing.T) {
	full := writeV1([]func(*bytes.Buffer){v1Access(mem.Load, 100), v1Access(mem.Load, 64)}, true)
	r, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("version = %d, want 1", r.Version())
	}
	var got []mem.Addr
	n, err := r.Replay(sinkFunc{
		access: func(a mem.Addr, k mem.Kind) { got = append(got, a) },
		instr:  func(uint64) {},
	})
	if err != nil || n != 2 || got[0] != 100 || got[1] != 164 {
		t.Fatalf("v1 replay: n=%d err=%v got=%v", n, err, got)
	}

	for cut := len("EMTRACE1"); cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("v1 header rejected at cut %d: %v", cut, err)
		}
		if _, err := r.Replay(mem.NullSink{}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("v1 truncation at byte %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestTraceCorrupt: flipped bytes are detected — either immediately as a
// bad record, or at the footer CRC — and the error carries an offset.
func TestTraceCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	rng := NewRNG(9)
	for i := 0; i < 2000; i++ {
		w.Access(mem.Addr(rng.Uint64n(1<<30)), mem.Kind(rng.Uint64n(4)))
	}
	w.Close()
	raw := buf.Bytes()

	detected := 0
	for trial := 0; trial < 200; trial++ {
		pos := 9 + int(rng.Uint64n(uint64(len(raw)-9)))
		bit := byte(1) << rng.Uint64n(8)
		corrupted := append([]byte(nil), raw...)
		corrupted[pos] ^= bit
		r, err := NewReader(bytes.NewReader(corrupted))
		if err != nil {
			continue // flags byte corrupted: rejected at open, fine
		}
		_, err = r.Replay(mem.NullSink{})
		if err == nil {
			t.Fatalf("bit flip at byte %d replayed as success", pos)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at byte %d: untyped error %v", pos, err)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("bit flip at byte %d: error %v carries no offset", pos, err)
		}
		detected++
	}
	if detected == 0 {
		t.Fatal("no corruption trial was detectable")
	}
}

// TestTraceFooter: the footer carries the event count and a verified CRC.
func TestTraceFooter(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(4096, mem.Load)
	w.Instr(3)
	w.Close()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(mem.NullSink{}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if !st.CRCVerified || st.DeclaredEvents != 2 || st.Events != 2 {
		t.Fatalf("footer stats: %+v", st)
	}
}

// TestZigzag round-trips the delta encoding.
func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if unzigzag(zigzag(d)) != d {
			t.Fatalf("zigzag round trip failed for %d", d)
		}
	}
}
