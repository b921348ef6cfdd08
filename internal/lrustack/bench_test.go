package lrustack

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkStackRef references a seeded stream over 2^20 distinct lines
// through a stack on the paper grid at the interval sampler's cap of
// 2^19 lines: three references in four go to a hot set of 2^18 lines,
// the rest anywhere, so most references hit deep in the stack and the
// rest are first touches that evict. The line index (2^20 slots) and the
// node arena outgrow the CPU caches, as they do on a real program.
func BenchmarkStackRef(b *testing.B) {
	const distinct, hot = 1 << 20, 1 << 18
	rng := trace.NewRNG(1)
	stream := make([]mem.Line, 1<<21)
	for i := range stream {
		k := rng.Uint64n(hot)
		if rng.Uint64n(4) == 0 {
			k = rng.Uint64n(distinct)
		}
		stream[i] = mem.Line(1<<34 + k)
	}
	s := New(PaperThresholds(6), 1<<19)
	for _, line := range stream {
		s.Ref(line)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ref(stream[i&(len(stream)-1)])
	}
}
