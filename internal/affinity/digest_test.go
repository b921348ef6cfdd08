package affinity

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// This file pins the splitters' observable behaviour with one digest per
// configuration: every subset Ref and CommitLastFilter return, and,
// every digestPeriod references, the bits of MinFilterFraction and the
// gob encoding of State(). The digests were recorded from the
// hand-written 2-, 4- and 8-way splitters before they were folded into
// one recursive Splitter, and are never regenerated: a mismatch means
// the splitter's behaviour or its checkpoint bytes changed.
//
// One normalization applies. When nothing is pending (PendingMech ==
// -1) the state's PendingAe is zeroed before hashing. The old 2-way
// splitter recorded Ae on every sampled-in Ref, the 4- and 8-way ones
// only on deferred Refs; the value is never read while nothing is
// pending, and no front end produces it because they all defer every
// filter update.

// digestSplitter is the surface the digest reads.
type digestSplitter interface {
	Ref(e mem.Line, updateFilter bool) int
	CommitLastFilter() int
	MinFilterFraction() float64
	State() SplitterState
}

// newDigestSplitter builds a log2(ways)-level splitter over root, each
// level halving the window and keeping the widths.
func newDigestSplitter(t *testing.T, ways int, root MechConfig, limit uint32, table Table) digestSplitter {
	t.Helper()
	return NewSplitter(SplitConfig{Ways: ways, Root: root, SampleLimit: limit}, table)
}

const digestPeriod = 997

// splitterDigest drives one splitter over a seeded Circular/Uniform
// phase stream and returns the hex SHA-256 of what it observed.
// deferred selects Ref(e, false) with a seeded CommitLastFilter on about
// a third of the references (the machine's L2-miss protocol); otherwise
// every Ref updates its filter directly and a stray commit still comes
// now and then.
func splitterDigest(t *testing.T, s digestSplitter, deferred bool, refs int) string {
	t.Helper()
	g := trace.Must(trace.NewPhased(4000,
		trace.NewCircular(3000),
		trace.Must(trace.NewUniform(2000, 7)),
		trace.Offset{G: trace.NewCircular(40), Delta: 5000},
		trace.Offset{G: trace.Must(trace.NewUniform(600, 11)), Delta: 9000},
	))
	rng := trace.NewRNG(3)
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := 0; i < refs; i++ {
		put(uint64(s.Ref(mem.Line(g.Next()), !deferred)))
		if rng.Uint64n(3) == 0 {
			put(uint64(s.CommitLastFilter()))
		}
		if i%digestPeriod == digestPeriod-1 {
			put(math.Float64bits(s.MinFilterFraction()))
			st := s.State()
			if st.PendingMech == -1 {
				st.PendingAe = 0
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(st); err != nil {
				t.Fatal(err)
			}
			h.Write(buf.Bytes())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSplitterDigest runs 2, 4 and 8 ways × four root configurations ×
// sampling off/25% × unbounded table/bounded cache × direct/deferred
// filter updates, and compares each digest with its recorded value.
func TestSplitterDigest(t *testing.T) {
	roots := []MechConfig{
		{WindowSize: 128, AffinityBits: 16, FilterBits: 18},
		{WindowSize: 64, AffinityBits: 16, FilterBits: 20},
		{WindowSize: 32, AffinityBits: 12, FilterBits: 14, ExactWindow: true},
		{WindowSize: 16, AffinityBits: 8, FilterBits: 10},
	}
	got := map[string]string{}
	for _, ways := range []int{2, 4, 8} {
		for ri, root := range roots {
			for _, limit := range []uint32{31, 8} {
				for _, bounded := range []bool{false, true} {
					for _, deferred := range []bool{false, true} {
						var table Table = NewUnbounded()
						if bounded {
							table = NewCache(512, 4)
						}
						name := fmt.Sprintf("w%d/r%d/l%d/cache=%v/deferred=%v", ways, ri, limit, bounded, deferred)
						s := newDigestSplitter(t, ways, root, limit, table)
						got[name] = splitterDigest(t, s, deferred, 48_000)
					}
				}
			}
		}
	}
	want := splitterDigests
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d recorded digests, %d configurations", len(want), len(got))
	}
}

var splitterDigests = map[string]string{
	"w2/r0/l31/cache=false/deferred=false": "ea279ee612fd1bae016236b8b597a6c00ae6c0d7a0476a72146bdfc0326c18eb",
	"w2/r0/l31/cache=false/deferred=true":  "a254a8fde21fba86f24dedbe5e932ff044ac5a62592bc79b4169a16c18894d46",
	"w2/r0/l31/cache=true/deferred=false":  "9fa54f0439cc29cfceae487e620f869de0d2a6b2286ceca23e5f6881ea6d2edb",
	"w2/r0/l31/cache=true/deferred=true":   "762869a8a385f2b9f5d0dbb1756c6aab9873198fdf8b51400be319bbd2f2f337",
	"w2/r0/l8/cache=false/deferred=false":  "d7207f7ab13b0e04bd01fc036969975313befd928c1bf63df9c838dcd53ca88a",
	"w2/r0/l8/cache=false/deferred=true":   "15fa44a5c9f712ee934cdcaf398559ab36f8be251e965b3b16b61f6db54d378e",
	"w2/r0/l8/cache=true/deferred=false":   "c0013ba07c5a9d5a15158a4a00f2cd335a4db47cad0e0fa23639be9e2abd58c4",
	"w2/r0/l8/cache=true/deferred=true":    "0c9b3b6fb8e65b9b17978ed559d7fb8eebffa0bf457164b54744d3e12929a77c",
	"w2/r1/l31/cache=false/deferred=false": "ac5af7b7f5efcc72c8b517a7c14bba94b081c2b2674a0a47bc04b1a9ba9a8b17",
	"w2/r1/l31/cache=false/deferred=true":  "62ca4aae43d7352a60535d3263c59aecf07cdd88bbc98c81270562c036fae0fd",
	"w2/r1/l31/cache=true/deferred=false":  "b950313fd5c2920ae72759c2c8d1291d0832558e579c8869de7f557ccf9b41e9",
	"w2/r1/l31/cache=true/deferred=true":   "6b6dd3287a3b167dcb225630f44725bd426cda3f744ba800663a828cbdc2d296",
	"w2/r1/l8/cache=false/deferred=false":  "1e1a8cb15ffd75c41853893fa7caf43120113234e400c333ae9533b336583d28",
	"w2/r1/l8/cache=false/deferred=true":   "9ff7204caeb0e7c737ddc48247fa5d6dd56a544413eaf2de6cba28c6816a7822",
	"w2/r1/l8/cache=true/deferred=false":   "53efb4bdf5eec7c973357660294e962489faa69a2f43889e4d7ba1427fda9086",
	"w2/r1/l8/cache=true/deferred=true":    "2e3eaa57edcfaa27da9fc6668a45d2ba21a9468f3fdbedc4b436824b26570639",
	"w2/r2/l31/cache=false/deferred=false": "ab03bea1f4e17f68dab66758c3fcd229464130e27815c6e4468f0fff60635b7e",
	"w2/r2/l31/cache=false/deferred=true":  "3f3f35e4cf50f2a5784d39ad303cbcc63c407b79d773725f73c8ff36a7daedb6",
	"w2/r2/l31/cache=true/deferred=false":  "67c4bb5e6f8584128074d640114c2fa44766e495877ae60e3f94bb7c204a16e1",
	"w2/r2/l31/cache=true/deferred=true":   "9ea2f06121490edd0c92a87cdd6700bae12d30c5c4a53bf7a830512f7f95eb98",
	"w2/r2/l8/cache=false/deferred=false":  "002994e882d130218edb22aec2f9306fc170bdab04aee82cebb3f070c10a0877",
	"w2/r2/l8/cache=false/deferred=true":   "3448fcdd35016e2891a0c3f2ebc9f51b198fa6a9dc3fabeaddedf84a92ecd723",
	"w2/r2/l8/cache=true/deferred=false":   "4657ad0a6b206da02a3598d802923f53dc908203db0bb1bed3d05ef86eaa5fc4",
	"w2/r2/l8/cache=true/deferred=true":    "4ff670a7b3cf67d413416e77bf332cdd08f277be32d16667131881a913b2892d",
	"w2/r3/l31/cache=false/deferred=false": "1fd18f16e3bc5c495c3099fd933a17861d39312f1d841c24e7c58966b4020cc4",
	"w2/r3/l31/cache=false/deferred=true":  "0a8d939b2aec94b8dc9c9a604956311d1b63e467c7d746fc2a491ced274b8586",
	"w2/r3/l31/cache=true/deferred=false":  "a6a3e332cd6cd9ea9a18522ab63f5559a46eef6431eb0efcbef8bc9513298374",
	"w2/r3/l31/cache=true/deferred=true":   "3d002163c2d1c81b807f91ef6b739567dea9118457d80867fa2a942a8d23323b",
	"w2/r3/l8/cache=false/deferred=false":  "7f4f1554655d6c5faac4d56b1c925fb195f6d6b2c1b4fb7ea778cdbbbd4ce829",
	"w2/r3/l8/cache=false/deferred=true":   "a2ad759eb6c2803ca3566f04187402d3f23fe4588e45978b6877c4266ed10280",
	"w2/r3/l8/cache=true/deferred=false":   "46450b5337de7e2287abfd65815518a0d3030093e12b78078c6d07a5c677b787",
	"w2/r3/l8/cache=true/deferred=true":    "0004fa4ab90599c88fd23a43c45a62bd350322b2722f35c1b45f86ed28d5f46a",
	"w4/r0/l31/cache=false/deferred=false": "bc2e605a34af1422a3891eea191ca621ceaa2b2f5d85aa4e2eeeea5f431f0b70",
	"w4/r0/l31/cache=false/deferred=true":  "7b7c8863aefef150e66c49847c62e5a79eb41d6403e42a7d76c6b9eb560485aa",
	"w4/r0/l31/cache=true/deferred=false":  "eaaf952e197dd2483cf44cf33f7d39d5527ee7318945c70e6da9ef89e6f2c00b",
	"w4/r0/l31/cache=true/deferred=true":   "e15c7e64797ea27892b52da0f698b88841850f4355a3aac2dd1fee546259d37d",
	"w4/r0/l8/cache=false/deferred=false":  "11e93646c2e32dfbf32f7aa1787876c55baf97390ee1afddeef1eab73c550d29",
	"w4/r0/l8/cache=false/deferred=true":   "94bb27e1c3d8536edd814f176db08678dfa49c736e2f3f42921bfc8bcc07038f",
	"w4/r0/l8/cache=true/deferred=false":   "77190fe477f54ddf219824d8d98bed3141fc409fbc93a2268bfd7c2b1a27fedf",
	"w4/r0/l8/cache=true/deferred=true":    "9258482b8c4a3ad9631b6cc96a31c90192ae0fcb0d7ed37dea1e48a7ac3870b7",
	"w4/r1/l31/cache=false/deferred=false": "9f6719ed1065c653b4e211b9a262939dc7adf45d6e84738d52214c74f7a48deb",
	"w4/r1/l31/cache=false/deferred=true":  "316edf0b8e9f4a359959d4eb5395a6e8cc6cdd4d566cc6fbd968c5dcf69c7450",
	"w4/r1/l31/cache=true/deferred=false":  "95c94318b3a16980e1ab6b3acddf4fd399bc0379acf9dc58733c2834d4a15586",
	"w4/r1/l31/cache=true/deferred=true":   "311d86fb43876ccf69585ad5dc48556f42c0d31538fcd1d1eb557c4a15fd6155",
	"w4/r1/l8/cache=false/deferred=false":  "3f7275698d0ebd4d9b93608b3ffd1b3857063721f7eeb94c6fd0d9de3a2d4eaa",
	"w4/r1/l8/cache=false/deferred=true":   "29ad2d329242b26ce5d6eebbdd911d073ca98cbab844731f58c8ba40d37b8153",
	"w4/r1/l8/cache=true/deferred=false":   "6aa9ea9979222cf5c44d7c9454d43487884132c14dd06d56b6b2a6e2eaf0a901",
	"w4/r1/l8/cache=true/deferred=true":    "44f6ed937be11b23f076dae05e47d2e905be859afd14357b8a365ee202cf6984",
	"w4/r2/l31/cache=false/deferred=false": "0fe2b33bcabd65bdb97cd58c8c5ae6c40b7f38a23b20c38a7fa1572152cbb368",
	"w4/r2/l31/cache=false/deferred=true":  "0de55bbeb39961abfd1403d81658976a79657273c7e2213cb38ae7559d5407c5",
	"w4/r2/l31/cache=true/deferred=false":  "c29df39c8b66cd332fe50f2860c0221e80e2431bfb5397afbcc1e370f9e91362",
	"w4/r2/l31/cache=true/deferred=true":   "379e288fcde56ebf6a682e86f36024667d56b4954b3ac205aacc6946abc7ecb0",
	"w4/r2/l8/cache=false/deferred=false":  "9f7fd256bdb5ae4cbb93769f7088789f45833382899dd0796fb89f4bf495ace4",
	"w4/r2/l8/cache=false/deferred=true":   "712e99dc31924fd46a13f328ae651682da379b6d5493cd778af32c4facf48b28",
	"w4/r2/l8/cache=true/deferred=false":   "ffc1a857a11819f9cc259926db3fa4c77f8eff8fe46247654f7523af313f920f",
	"w4/r2/l8/cache=true/deferred=true":    "8556b8a6c8e09152176abb5745b6ee7d84d8c75c03a938478483afa5afd72e2a",
	"w4/r3/l31/cache=false/deferred=false": "c1c5250583ffe6a7a7b170bf5f17a4433c84085c354ed5661d04d9cdf67c4efd",
	"w4/r3/l31/cache=false/deferred=true":  "a23917e8f0dd4fce05cf8ee29511d7d3af904b2f0f393c947c04808b92b2cb3c",
	"w4/r3/l31/cache=true/deferred=false":  "9501b296d4492e117f91148c54bec64d483707a1b998decf047e1314e702e8c4",
	"w4/r3/l31/cache=true/deferred=true":   "93dda4d39587724c878269dcd8d541a88f73c9c039a7e9bf31dd1c6240fa5b21",
	"w4/r3/l8/cache=false/deferred=false":  "71f9d5bfabe429515ab57aebd68459c617ab0accbc8209bc372e2eb8cf164f5f",
	"w4/r3/l8/cache=false/deferred=true":   "940451c44aeeea56e75a8d174df2c6f1699116e497e96c3f9dbf166e69b294f0",
	"w4/r3/l8/cache=true/deferred=false":   "71f9d5bfabe429515ab57aebd68459c617ab0accbc8209bc372e2eb8cf164f5f",
	"w4/r3/l8/cache=true/deferred=true":    "940451c44aeeea56e75a8d174df2c6f1699116e497e96c3f9dbf166e69b294f0",
	"w8/r0/l31/cache=false/deferred=false": "9bfb2ae8e79fd062530ee17c60c4ce3ab3cd38eb846715db4d1ac8d3b923dab0",
	"w8/r0/l31/cache=false/deferred=true":  "7ebe5836315d118c188f38d744c820e024dcc7ce005769807c1aa61cb67024c4",
	"w8/r0/l31/cache=true/deferred=false":  "3454f631ea448633db4242e0bb22450e3a0be970a1d129ad2cd54b72f5e795dc",
	"w8/r0/l31/cache=true/deferred=true":   "ae984fb03c3d55047bce3896e4d1e6d443b55b836b4d7dd4ee4788a7c3aa7843",
	"w8/r0/l8/cache=false/deferred=false":  "0fd6e464fc53b9cef8e5f2899355ef1a75e7942a83e08d17c380f680c5f7529c",
	"w8/r0/l8/cache=false/deferred=true":   "1cf81e5b8e248c53bb94e1a5a05e2f346730136de28c5c4b5226e23cae4ce460",
	"w8/r0/l8/cache=true/deferred=false":   "76f4c636ca62aecba59e3139b71afe9403cebcd15a2b68a3273b4a9c339e9c71",
	"w8/r0/l8/cache=true/deferred=true":    "2a13b9b202eb2c6b7130949ca0d4e9571b488b68e84715a7ce7afa9eaa415dc4",
	"w8/r1/l31/cache=false/deferred=false": "5d926d80adac34c8b8cb52fc9d62b6563e28f7fd82e52e50d3c6d3fbc95041ee",
	"w8/r1/l31/cache=false/deferred=true":  "73533434eaae230d0bfc56c1481a55e1eb0df5de264a050f1c1cd278ff6ba513",
	"w8/r1/l31/cache=true/deferred=false":  "a284eb9e3465506b87d450126d7fbe2c32a9b9e51d39265bd17ff47428cee0d6",
	"w8/r1/l31/cache=true/deferred=true":   "d701d422bd630566d6c417f814f42f46e033b5a8a8460262086f6265b157f4ac",
	"w8/r1/l8/cache=false/deferred=false":  "22719899e6a85e8e765a8a88d5d47e87ae236675e56bddffc6baf0d8d15d73e5",
	"w8/r1/l8/cache=false/deferred=true":   "8c8b3e5a993560149ed166ddfc0aacbac217b7d0da9213d63fc4dfdd19537866",
	"w8/r1/l8/cache=true/deferred=false":   "e841fc7f1e90dd4a5a53745bf71269f1708d538b0a92b4aab6251f66eddaf500",
	"w8/r1/l8/cache=true/deferred=true":    "f8dc2bc9e44d8775c6e3cd2ab8593447428f75cde382ed96a3837435aac75165",
	"w8/r2/l31/cache=false/deferred=false": "6e809aa5e19fba9f87ecde46a28a62c15af2a86dac502ad3db1f34f475606349",
	"w8/r2/l31/cache=false/deferred=true":  "9ce05a5bad5a70ca4d60de18a1ff9986a4a7d144a2022b6ccc75ea7c1555718f",
	"w8/r2/l31/cache=true/deferred=false":  "a23f5ae101fbd9fb670cf7d8159e61d3b403f8637e2925c21dee60a688127afb",
	"w8/r2/l31/cache=true/deferred=true":   "972d825fc08883ae634a4298cfbc58a4c62a273cdbc74f55877f66a4a293d1ba",
	"w8/r2/l8/cache=false/deferred=false":  "4fdee6c25021fd440e92c16e7e054309a472753a2509baca890896126a4a61cc",
	"w8/r2/l8/cache=false/deferred=true":   "600957d6e756c23dd2a934d7374656a2b1cafbfba806cb2494d43b75bb0e52f9",
	"w8/r2/l8/cache=true/deferred=false":   "8d6731bd262094c5ae9ed8b931967b02da6a9c80de03cfd4c4bd63ba5103a871",
	"w8/r2/l8/cache=true/deferred=true":    "1ea798ea8d4d455501176a27414e48c9c1560c33a2dd35d93ce0e64e502d95b3",
	"w8/r3/l31/cache=false/deferred=false": "e6ce15d6c24e074157eaeb4e79c2fa155390fd120207207c535defab5bd39f23",
	"w8/r3/l31/cache=false/deferred=true":  "810555f404f309e5632fd2b760c78d43b0a3c61fe90f91232ed7ee9290deac09",
	"w8/r3/l31/cache=true/deferred=false":  "b09883068800e9dd2b412807286a990faa201c7919e408b4519674c2c95e89d1",
	"w8/r3/l31/cache=true/deferred=true":   "5eee6087d9ca9fcd7c2894488c1962a9c089fd3277c26fa5a9eb7f48c3a464c5",
	"w8/r3/l8/cache=false/deferred=false":  "c5307c6c14762bdba4eee5418e4132c434748cc07ea4e0a65a1f9254bbebf746",
	"w8/r3/l8/cache=false/deferred=true":   "416567b07dbc78af2f9dabdc33035a31dacd1cadba12afc7442108663708fdfd",
	"w8/r3/l8/cache=true/deferred=false":   "5c4b735843f75ab940eb1e8ea21bced2767cc4f5ae61db96072256e241db87eb",
	"w8/r3/l8/cache=true/deferred=true":    "ae5945ccaf07861980edcfd937dab8fb05253af11b1009bbd053ddddbb1138a9",
}
