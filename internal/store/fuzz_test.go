package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry: arbitrary bytes through the entry decoder must
// either fail cleanly or round-trip bit-identically through a
// re-encode — the same oracle shape the checkpoint fuzzer uses, because
// the store's never-serve-a-wrong-byte contract rests on this parser.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(EncodeEntry(nil))
	f.Add(EncodeEntry([]byte(`{"workload":"mst","events":42}`)))
	long := EncodeEntry(bytes.Repeat([]byte("x"), 4096))
	f.Add(long)
	f.Add(long[:len(long)/2])
	f.Add([]byte(entryMagic))
	f.Add([]byte("EMCKPT1\n")) // the sibling format must be rejected, not confused
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeEntry(body), data) {
			t.Fatalf("accepted entry does not re-encode bit-identically")
		}
	})
}
