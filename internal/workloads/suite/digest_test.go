package suite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/mem"
)

// columnHash hashes a stream's record columns: for each record, its
// kind tag as one byte and its Addr slot (an address, or the instruction
// count of a KindInstr record) as 8 little-endian bytes. It hashes the
// values themselves, not an encoding of them, so the digest pins the
// stream a generator emits and nothing about any file format.
type columnHash struct {
	h   hash.Hash
	buf [9]byte
}

func (c *columnHash) AccessBatch(b *mem.Batch) {
	for i, k := range b.Kind {
		c.buf[0] = k
		binary.LittleEndian.PutUint64(c.buf[1:], uint64(b.Addr[i]))
		c.h.Write(c.buf[:])
	}
}

// streamDigests pins each generator's stream at the two budgets users
// wait on: a 200,000-instruction service miss and perfbench's 4,000,000-
// instruction `full` shape. A kernel change that moves any address, kind
// or instruction count changes what the machine measures and fails here;
// an entry is regenerated only for a deliberate stream change.
var streamDigests = map[string][2]string{
	"164.gzip": {
		"5da2aaba99284a908039e914b8689b42ffbdf0b99c2ebe672fd589cec9ec1d56",
		"7753f358e781a6919a1ca19c35725f9e0159df999e449ab3ccd6128a4ffdf2fe",
	},
	"171.swim": {
		"49455b6ab5ce81bd50c5debd5a707878977f4099299f7c77eb468011477000f6",
		"4ce70b2bfb2c0c06dfb03f54ed7e4f28f5438b36b827b9c8b02735ae62a04db0",
	},
	"172.mgrid": {
		"f5fee89f6c96c8137b715ab33aa2f1d68e799b48e22eaf84ad5004407164273a",
		"f5fee89f6c96c8137b715ab33aa2f1d68e799b48e22eaf84ad5004407164273a",
	},
	"175.vpr": {
		"fbd842b88ac82c6a8698acf6abe2c4346f09dc9b535170bc4589dfd64d88f560",
		"b4b0a082ca9aec65b9c711c58fa07ee1cefb784b89e22805975124cd59025488",
	},
	"176.gcc": {
		"4fb3667878e48fcd1a1a8c18070f46d5a7500bb52a4a7500ad642e313973b1f5",
		"8808d1895f287bf299fedde5a0fec93319e0458fd5f55ff43701a376dcea90c3",
	},
	"179.art": {
		"3a6aa0d464bf63285eca9dcbbbfb51661116d430b698cb9cf6009c7bd2eb71f3",
		"ff9ef13d42ea3d24f92e66b58ef6ad24d833788b2ef2244c8ba3037a7e677239",
	},
	"181.mcf": {
		"d46e79fe5aca0f30a7b7fed9c1ebc2551cda5007dcb4e5542b370c2d4c227b67",
		"e2b1f052631cb6aed9c7edb03aab7e2c77de98a13c4617c27063c620a75e002d",
	},
	"186.crafty": {
		"4510539eeaf1429ef1e533f09029f58969dfa26dfacd6cf1bed2995dbcdd06c6",
		"87022f5852dccb9a4d9be7bda7cd845b3a3dbdb1851e7cf7375d4f4c3a41930a",
	},
	"188.ammp": {
		"75ffa1265de81c7cac908a731ed12f0049a9cda40053e2c760f534920f02d743",
		"b6d8af8004a7de1d3a233461aad1a07a1cece81c3e6362799a198ca173e67cbd",
	},
	"197.parser": {
		"a8665efe20bfdbe1dff176f745fe22de0930a2fcabfb5a916f28a82fc308d49c",
		"3a7087458b949d1acf0a6316c1968d0d836b67717db0e6909cf3d6becd707156",
	},
	"255.vortex": {
		"ebe8e7af1e16073bd83a693f031b13f70cb77a8e1d10d4eb9f2d0e6332cbcba9",
		"3aaf756fc566b914f36bd5769bc2590f333b97e15a4b9f0cd34ff05340fccfed",
	},
	"256.bzip2": {
		"4e4b0a947ea061f839b65c8df3725d47bb3a36e427833d8142d443947167cdc7",
		"4e4b0a947ea061f839b65c8df3725d47bb3a36e427833d8142d443947167cdc7",
	},
	"300.twolf": {
		"c2d2b5730c896a5c6788d5564782f2bc0b3784d5f235b770c21036c8744ebb10",
		"669d7891eddcf1007ac7cad817e11459babf8bf65e334622d0b1380a0dbaf087",
	},
	"bh": {
		"ecb0a248069d186da865051fd618e5192eca3ad2430a473214ed28be8405182a",
		"27af39e3c172357c3a333dfcee8f7731704f934f4e45099f1b35399313e2287b",
	},
	"bisort": {
		"2d783c8e2597a68a22e67a0a791e5fb1b8a08c5543ad312c7b3dad6dcda59e63",
		"505fb8e9743878092c08864a4fa8bdac62a7cffebd3c3f642b33f443d6b84183",
	},
	"em3d": {
		"45554d040a6518348b98f6fb1ec32ea19c6405ef2f30dc7c5fbdaa6ba4fc9951",
		"d6637013e1ba5bf206815c62b1ad762c7d47ceabe2ef1a5ad3398f403563a481",
	},
	"health": {
		"cb6d1fe42e0e0079ba7218bef44ef474beb9b364ddd24ee63f40d19c7aee84d4",
		"c4d104c8424e66904490be9bcad934fa0f31b6e9b45c01ed8cd456f09f50de7a",
	},
	"mst": {
		"0a77a59cdb2b88b6950295e8a6c8eb09c6546664932b287f768d1719ce2ad7bf",
		"1763730c4848906a05e888f77a835ec61e32d13c528d449509f49b45cba22445",
	},
}

// TestWorkloadStreamDigests checks every program's record columns at
// both budgets against the recorded SHA-256.
func TestWorkloadStreamDigests(t *testing.T) {
	r := Registry()
	names := r.Names()
	if len(names) != len(streamDigests) {
		t.Fatalf("registry has %d workloads, digests cover %d", len(names), len(streamDigests))
	}
	for _, name := range names {
		want, ok := streamDigests[name]
		if !ok {
			t.Fatalf("no digest recorded for %s", name)
		}
		for i, budget := range []uint64{200_000, 4_000_000} {
			w, err := r.New(name)
			if err != nil {
				t.Fatal(err)
			}
			c := &columnHash{h: sha256.New()}
			b := mem.NewBatcher(c, 0)
			w.Run(b, budget)
			b.Flush()
			if got := hex.EncodeToString(c.h.Sum(nil)); got != want[i] {
				t.Errorf("%s at %d instructions: stream SHA-256 %s, want %s", name, budget, got, want[i])
			}
		}
	}
}
