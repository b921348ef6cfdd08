package affinity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestAffinityCacheStatePinned pins the SHA-256 of the columns and
// counters of State() (little-endian, in field order) for Table 2's 8k-entry 4-way affinity cache after a seeded
// Lookup/Store stream, hashed once while the cache is still partly
// empty and once at the end. The digest was recorded before the entry
// layout changed and is never regenerated: a mismatch means an age,
// Oe, victim choice or counter moved. Gob is not hashed: it numbers
// its types per process, so its bytes depend on which tests ran first.
func TestAffinityCacheStatePinned(t *testing.T) {
	const want = "a18a07b5f1373a2fbb705b6c29bdd0b10119c52e0338dd43c182d8782a388298"
	const entries, ops = 8192, 60_000
	c := NewCache(entries, 4)
	rng := trace.NewRNG(5)
	h := sha256.New()
	for i := 1; i <= ops; i++ {
		line := mem.Line(rng.Uint64n(3 * entries))
		if rng.Uint64n(8) == 0 {
			line += mem.Line(rng.Uint64() >> 8)
		}
		if rng.Uint64n(2) == 0 {
			c.Lookup(line)
		} else {
			c.Store(line, int64(rng.Uint64())>>40)
		}
		if i == entries/4 || i == ops {
			st := c.State()
			for _, col := range []any{st.Lines, st.Oe, st.Valid, st.Age, st.Hits, st.Misses, st.Evictions} {
				if err := binary.Write(h, binary.LittleEndian, col); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("state digest %s, want %s", got, want)
	}
}
