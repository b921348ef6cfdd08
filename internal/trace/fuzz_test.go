package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
)

// fuzzSeedTraces builds a small corpus of valid traces (v1 and v2) so
// the fuzzer starts from structurally meaningful inputs.
func fuzzSeedTraces() [][]byte {
	var seeds [][]byte

	var v2 bytes.Buffer
	w, _ := NewWriter(&v2)
	rng := NewRNG(1)
	for i := 0; i < 500; i++ {
		switch rng.Uint64n(5) {
		case 0:
			w.Instr(rng.Uint64n(1000) + 1)
		default:
			w.Access(mem.Addr(rng.Uint64n(1<<40)), mem.Kind(rng.Uint64n(4)))
		}
	}
	w.Close()
	seeds = append(seeds, v2.Bytes())

	v1 := writeV1([]func(*bytes.Buffer){
		v1Access(mem.Load, 4096),
		v1Access(mem.Store, -64),
		v1Access(mem.IFetch, 1<<20),
	}, true)
	seeds = append(seeds, v1)

	// A truncated v2 trace and a few degenerate inputs.
	seeds = append(seeds,
		v2.Bytes()[:len(v2.Bytes())/2],
		[]byte("EMTRACE2"),
		[]byte("EMTRACE1"),
		[]byte{},
	)

	// Varints of every length 1-10, minimal, maximal and padded, as
	// access deltas and instruction counts, in both versions; then one
	// trace whose last record overflows 64 bits.
	var body, overflow []byte
	events := uint64(0)
	for _, c := range varintCases() {
		if strings.HasPrefix(c.name, "overflow") {
			overflow = append([]byte{0xFE}, c.payload...)
			continue
		}
		body = append(append(body, 2), c.payload...)
		body = append(append(body, 0xFE), c.payload...)
		events += 2
	}
	seeds = append(seeds,
		v2Trace(body, events),
		v1Trace(body),
		v2Trace(append(append([]byte(nil), body...), overflow...), events+1),
	)
	return seeds
}

// checkTypedError fails unless err is a typed trace error
// (ErrTruncated / ErrCorrupt) whose *FormatError offset lies inside the
// input.
func checkTypedError(t *testing.T, what string, err error, data []byte) {
	t.Helper()
	if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("untyped %s error: %v", what, err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("%s error without offset: %v", what, err)
	}
	if fe.Offset < 0 || fe.Offset > int64(len(data)) {
		t.Fatalf("%s offset %d outside input of %d bytes", what, fe.Offset, len(data))
	}
}

// replayBody is the fuzz body. Arbitrary bytes must never panic either
// decoder: every outcome is a clean replay or a typed error
// (ErrTruncated / ErrCorrupt / a header error). The batched decoder —
// the one every surface uses — must reject what it rejects with the
// same typed errors, and whenever the strict scalar reference reader
// succeeds it must deliver the identical record stream and event count.
func replayBody(t *testing.T, data []byte) {
	var scalar recSink
	var scalarEvents uint64
	r, scalarErr := NewReader(bytes.NewReader(data))
	if scalarErr == nil {
		scalarEvents, scalarErr = r.Replay(&scalar)
		if scalarErr != nil {
			checkTypedError(t, "replay", scalarErr, data)
		} else if r.Offset() > int64(len(data)) {
			// Clean termination requires having actually seen the
			// end-of-trace record; the reader cannot have consumed
			// more than the input.
			t.Fatalf("consumed %d of %d bytes", r.Offset(), len(data))
		}
	}
	var batched recSink
	var batchEvents uint64
	br, batchErr := NewBatchReader(bytes.NewReader(data))
	if batchErr == nil {
		batchEvents, batchErr = br.ReplayBatches(&batched, nil)
		if batchErr != nil {
			checkTypedError(t, "batched replay", batchErr, data)
		}
	}
	if scalarErr != nil {
		return
	}
	if batchErr != nil {
		t.Fatalf("batched decoder failed where the scalar reader succeeded: %v", batchErr)
	}
	if batchEvents != scalarEvents {
		t.Fatalf("batched replayed %d events, scalar %d", batchEvents, scalarEvents)
	}
	if !bytes.Equal(batched.kinds, scalar.kinds) {
		t.Fatal("batched kind stream diverges from scalar")
	}
	for i := range scalar.addrs {
		if batched.addrs[i] != scalar.addrs[i] {
			t.Fatalf("record %d: batched addr %#x, scalar %#x", i, batched.addrs[i], scalar.addrs[i])
		}
	}
}

// FuzzReplay drives arbitrary bytes through both trace decoders.
func FuzzReplay(f *testing.F) {
	for _, s := range fuzzSeedTraces() {
		f.Add(s)
	}
	f.Fuzz(replayBody)
}

// TestFuzzCorpusSmoke runs the fuzz body over the seed corpus in a plain
// test, so `go test` exercises both decoders even without -fuzz.
func TestFuzzCorpusSmoke(t *testing.T) {
	for i, s := range fuzzSeedTraces() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { replayBody(t, s) })
	}
}
