package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestSetAssocStatePinned pins the SHA-256 of State()'s columns (the
// checkpoint's content, little-endian, in field order) after seeded Probe/InsertProbed, Lookup/SetFlags and Lookup/Insert
// streams, on the machine's L1 (PaperL1, 4-way) and skewed L2 (PaperL2)
// geometries. The state is hashed once while the cache is still partly
// empty and once at the end. The digests were recorded before the
// frame layout changed and are never regenerated: a mismatch means a
// stamp, clock, count, flag or victim choice moved. The columns are
// hashed rather than the gob encoding because gob numbers its types per
// process, so a gob digest would depend on which tests ran first.
func TestSetAssocStatePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  Geometry
		want string
	}{
		{"PaperL1", GeometryFor(16<<10, 6, 4, false), "347902ff2e7e47696ad7d33cec1f32f1a76e1db1e48507ecc23be7019c710904"},
		{"PaperL2", GeometryFor(512<<10, 6, 4, true), "0e1cb8f8458e91b6fc0ebcd056b022a6e587acda4f35a98b93e568fd06bbd565"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSetAssoc(tc.geo)
			rng := trace.NewRNG(7)
			h := sha256.New()
			span := uint64(3 * tc.geo.Frames())
			for i := 1; i <= 60_000; i++ {
				line := mem.Line(rng.Uint64n(span))
				if rng.Uint64n(8) == 0 {
					line += mem.Line(rng.Uint64() >> 8)
				}
				flags := uint8(rng.Uint64n(4))
				if rng.Uint64n(4) != 0 {
					if _, ok := c.Probe(line); !ok {
						c.InsertProbed(line, flags)
					}
				} else if hd, ok := c.Lookup(line); ok {
					c.SetFlags(hd, flags)
				} else {
					c.Insert(line, flags)
				}
				if i == tc.geo.Frames()/4 || i == 60_000 {
					st := c.State()
					for _, col := range []any{st.Lines, st.Valid, st.Flags, st.Stamp, st.Clock, uint64(st.Count)} {
						if err := binary.Write(h, binary.LittleEndian, col); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("state digest %s, want %s", got, tc.want)
			}
		})
	}
}
