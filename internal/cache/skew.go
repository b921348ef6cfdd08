package cache

import "repro/internal/mem"

// SkewIndex computes the set index used by a given way of a
// skewed-associative cache, in the spirit of Bodin & Seznec's skewing
// functions: the index bits and the next-higher address bits are mixed
// with a per-way bit permutation, so two lines conflicting in one way are
// unlikely to conflict in another.
//
// Way 0 XORs the index bits with the next-higher bits (a1 ^ a2); way w
// additionally rotates a2 by w positions and mixes in a multiplicative
// scramble of the remaining high bits, so pathological power-of-two
// strides spread out differently in every way.
func SkewIndex(way int, line mem.Line, setsLog2 uint) uint32 {
	if setsLog2 == 0 {
		return 0
	}
	mask := uint64(1)<<setsLog2 - 1
	v := uint64(line)
	a1 := v & mask
	a2 := (v >> setsLog2) & mask
	if way == 0 {
		return uint32(a1 ^ a2)
	}
	// rotate a2 left by `way` within setsLog2 bits
	r := uint(way) % setsLog2
	rot := ((a2 << r) | (a2 >> (setsLog2 - r))) & mask
	hi := v >> (2 * setsLog2)
	// golden-ratio scramble of high bits, one distinct shift per way
	h := (hi*0x9e3779b97f4a7c15 ^ uint64(way)*0xbf58476d1ce4e5b9) >> (64 - setsLog2)
	return uint32((a1 ^ rot ^ h) & mask)
}

// Skew is SkewIndex for one geometry with its per-way constants (the
// rotation amount and the scrambled way constant) precomputed, so a
// walk over every way of one line shares the line's decomposition —
// one golden-ratio multiply per line instead of one per way.
type Skew struct {
	setsLog2 uint
	mask     uint64
	rot      []uint
	scramble []uint64
}

// NewSkew precomputes the skewing functions of a ways-way cache with
// 2^setsLog2 sets per way.
func NewSkew(ways int, setsLog2 uint) Skew {
	s := Skew{setsLog2: setsLog2, mask: uint64(1)<<setsLog2 - 1, rot: make([]uint, ways), scramble: make([]uint64, ways)}
	for w := 0; w < ways; w++ {
		if setsLog2 > 0 {
			s.rot[w] = uint(w) % setsLog2
		}
		s.scramble[w] = uint64(w) * 0xbf58476d1ce4e5b9
	}
	return s
}

// split decomposes line for set: a1 and a2 are its two index-bit
// groups, hiK the golden-ratio multiply of its high bits.
//
//emlint:hotpath
func (s *Skew) split(line mem.Line) (a1, a2, hiK uint64) {
	v := uint64(line)
	return v & s.mask, (v >> s.setsLog2) & s.mask, (v >> (2 * s.setsLog2)) * 0x9e3779b97f4a7c15
}

// set is SkewIndex(w, line, setsLog2) from line's split.
//
//emlint:hotpath
func (s *Skew) set(w int, a1, a2, hiK uint64) uint32 {
	if w == 0 {
		return uint32(a1 ^ a2)
	}
	sl := s.setsLog2
	r := s.rot[w]
	rot := ((a2 << r) | (a2 >> (sl - r))) & s.mask
	h := (hiK ^ s.scramble[w]) >> (64 - sl)
	return uint32((a1 ^ rot ^ h) & s.mask)
}

// Frames writes line's candidate frame in way w, w<<setsLog2 +
// SkewIndex(w, line, setsLog2), into dst[w] for every w < len(dst).
//
//emlint:hotpath
func (s *Skew) Frames(line mem.Line, dst []int32) {
	a1, a2, hiK := s.split(line)
	for w := range dst {
		dst[w] = int32(w)<<s.setsLog2 + int32(s.set(w, a1, a2, hiK))
	}
}
