package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/mem"
)

// BenchmarkNextBatch decodes a trace whose address deltas take one to
// six varint bytes (seeded jumps of 2^0-2^30 lines either way, as a
// pointer-chasing program's replay has), with an instruction record
// after every fourth access, and reports ns per decoded event.
func BenchmarkNextBatch(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRNG(1)
	var addr uint64
	for i := 0; i < 1<<18; i++ {
		jump := rng.Uint64n(1<<rng.Uint64n(31)) << 6
		if rng.Uint64n(2) == 0 {
			addr += jump
		} else {
			addr -= jump
		}
		w.Access(mem.Addr(addr), mem.Load)
		if i%4 == 0 {
			w.Instr(rng.Uint64n(64) + 1)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	batch := mem.NewBatch(0)
	var events uint64
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := NewBatchReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for err == nil {
			batch.Reset()
			_, err = br.NextBatch(batch)
		}
		if err != io.EOF {
			b.Fatal(err)
		}
		events += br.Stats().Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
