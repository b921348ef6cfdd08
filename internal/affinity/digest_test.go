package affinity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// This file pins the splitters' observable behaviour with one digest per
// configuration: every subset Ref and CommitLastFilter return, and,
// every digestPeriod references, the bits of MinFilterFraction and
// State()'s fields written column by column (little-endian, in field
// order, ints as int64). The behaviour was first pinned from the
// hand-written 2-, 4- and 8-way splitters, before they were folded into
// one recursive Splitter, by digests over gob.Encode(State()); these
// column digests were recorded while every one of those still matched,
// and replaced them because gob numbers its types per process in
// first-use order, so its bytes depend on which tests encoded what
// first. They are never regenerated: a mismatch means the splitter's
// behaviour or its state changed.
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
			writeSplitterState(t, h, st)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSplitterState writes st's fields to w in field order,
// little-endian, with every int widened to int64.
func writeSplitterState(t *testing.T, w io.Writer, st SplitterState) {
	t.Helper()
	cols := []any{int64(st.Ways), st.Refs, st.SampledOut, st.Transitions, int64(st.Prev), st.Started,
		int64(st.PendingMech), st.PendingAe}
	for _, m := range st.Mechs {
		cols = append(cols, m.Win, int64(m.Head), m.Full, m.AR, m.Delta, m.Filter, m.Refs)
	}
	for _, col := range cols {
		if err := binary.Write(w, binary.LittleEndian, col); err != nil {
			t.Fatal(err)
		}
	}
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
	"w2/r0/l31/cache=false/deferred=false": "e9185c5f5bb8c73457652effa0faf10b98ad404f73249b3cb11622a0a49c9607",
	"w2/r0/l31/cache=false/deferred=true":  "9d4b844b9fa0b89de338348f3acf55abad99b8253bbb8dc2bf942e523084e0b4",
	"w2/r0/l31/cache=true/deferred=false":  "a753bafc33d92f2d62e8404543af160eef28c540bf78164811f5aa09a35b29d6",
	"w2/r0/l31/cache=true/deferred=true":   "10280db02c58394e09318562b7189768e320ac9f251cbad9d82c48747b7614ea",
	"w2/r0/l8/cache=false/deferred=false":  "188e180185a06e5145939f50b9e94b0ac95e91f38671e0e64066680b1113e6d5",
	"w2/r0/l8/cache=false/deferred=true":   "855270297852d4724803dfa924dee8558ecbc6b95d26f84de4c7826a51759056",
	"w2/r0/l8/cache=true/deferred=false":   "c0454ce5b14bc8f40bfe8d2289e7020fa08fba5b5bfc42a56d1c186c7d2ec96e",
	"w2/r0/l8/cache=true/deferred=true":    "f1c717d9069aa2e3582965c76ebe4b983bcb5f62e92cea1461feb017bf2cf0bc",
	"w2/r1/l31/cache=false/deferred=false": "90450c726df906398421dc068344a7422dafe065177122d734da217330c464f6",
	"w2/r1/l31/cache=false/deferred=true":  "75b9c16ebfe41cd083bc8af8011086f2d38b8aa2e96d7241b746ea8c0e539fad",
	"w2/r1/l31/cache=true/deferred=false":  "d0e3e0a1263b334f61d30fd09f0132e1e8575a5647debab707ea64c1d2fceb1f",
	"w2/r1/l31/cache=true/deferred=true":   "7c091efd2bb411ff2de430b00e6bc00c9241de2753d5f542714b2862254aa439",
	"w2/r1/l8/cache=false/deferred=false":  "443c04f1eb5eb27c39e00fa6fe9a58b72dc794e64bcf1d6d71fe29142953b723",
	"w2/r1/l8/cache=false/deferred=true":   "6362ac81865c2fe6bed2ce4b9d9c668972c289bf24c6f6d25726714500e765d9",
	"w2/r1/l8/cache=true/deferred=false":   "4a236478787f2f0b85122aa13168e120b32f03ed7c8ccf89e5728609daeae692",
	"w2/r1/l8/cache=true/deferred=true":    "ed973e4dd5cc25bc7f47145c4bbe9eb9e5c0fbf007a23015b0faa176b94bc888",
	"w2/r2/l31/cache=false/deferred=false": "ead0c5055b97b1cfdf4e063ff971d9f0e28c428205eb499e2f2b2237959382ad",
	"w2/r2/l31/cache=false/deferred=true":  "4c2db52412227360024d3ee342d46d3a60a219c718f4bcb5acaf0b7db0ffd793",
	"w2/r2/l31/cache=true/deferred=false":  "7a68198fcd696606653932ff980215a882bd50125c0ec7908b55af615c00f85f",
	"w2/r2/l31/cache=true/deferred=true":   "8ff5fd618de6215e17c9a12b8c94c4793a3e16222ab015a3c32c8eee9cf682c5",
	"w2/r2/l8/cache=false/deferred=false":  "a7d58fbf61bfc6789c08ccf338d33359ba3e35c7c08691831d56d51c7dfc11e2",
	"w2/r2/l8/cache=false/deferred=true":   "e778e62d529e6e1e7ec03903b29a4501189c4cc61b626a8712c079c98f19b001",
	"w2/r2/l8/cache=true/deferred=false":   "9d9e216d876826f96f0bb8b26cafbbc1c08dd87fa1a6754a691ad1986ab5141b",
	"w2/r2/l8/cache=true/deferred=true":    "29a090bd2fdba02ed18b59f0978531599c0a03c6aab13e53b73da698f2b52152",
	"w2/r3/l31/cache=false/deferred=false": "62faaa12bc494a02a9ff23294483376f25b5e57b21a969cd53db38f6ce32896e",
	"w2/r3/l31/cache=false/deferred=true":  "8c9f3e167111719d83e0d707179d94e55798a7c5de4cf9781b14eed37391df99",
	"w2/r3/l31/cache=true/deferred=false":  "1759370b25601fe1a780577076223e2e26cd89acbb7b976263f32e22ec6a67d8",
	"w2/r3/l31/cache=true/deferred=true":   "a9c6ca84fe3f883f22ee3801ae3d5b6de86c5621b5dbfb1206b54bba099b5a48",
	"w2/r3/l8/cache=false/deferred=false":  "e0a58da63a8fe3e89c2350407f0c027b8da1e15d4fbf151a67f419f7c6b89a19",
	"w2/r3/l8/cache=false/deferred=true":   "cdac1b1d0d2f965dd7540f67773f0af99f9e027b7d272ebedd6f82101d2d89fd",
	"w2/r3/l8/cache=true/deferred=false":   "6ea8c400c149aa835594ca958804bfdb34ec884c0466d68efa8f91e48e258c38",
	"w2/r3/l8/cache=true/deferred=true":    "25677a69a8b6e3b7107edf3ec169ed96e0ecc09b66c0df126a5c1f39f1b34218",
	"w4/r0/l31/cache=false/deferred=false": "5dbec90835f44c2412a157e34c5851babb736e15c26164a0bd75e98fb8256ec0",
	"w4/r0/l31/cache=false/deferred=true":  "41d63a2dc94bb55d83186589fc558473717519940218922b09d6f6428988b3b3",
	"w4/r0/l31/cache=true/deferred=false":  "1af49d3f82d5952acda43c3c0e97d90bf6c5b2d7c000dcd6907816a251673773",
	"w4/r0/l31/cache=true/deferred=true":   "5f9758aa896dae8f3c2b291b61174cc235b1c9dd2b621878cac8cf500678bf1a",
	"w4/r0/l8/cache=false/deferred=false":  "73957660116c7df2a02604f31bb737787f5f9e2d04038718958f2650154382ed",
	"w4/r0/l8/cache=false/deferred=true":   "a4c2b5e120bea409157f47266b0d9e37404a3fc051cb38b3a021b958579e8558",
	"w4/r0/l8/cache=true/deferred=false":   "6d00cf2b2e34c2cd078f8acde5919a21f19089c62125fa55b24ee75124199b9d",
	"w4/r0/l8/cache=true/deferred=true":    "4ae7be7b064afa4a82add19c42d323d3b11ec4da88973cfffff368d501cb13a3",
	"w4/r1/l31/cache=false/deferred=false": "9b0dfc5e686229975bfc37f8165a371f8238a256fe1c3973f413f14471e6bffb",
	"w4/r1/l31/cache=false/deferred=true":  "1ea3dde306863a328d0692a186ef6cb9f47ecdd050feeb21436136e15fa28a93",
	"w4/r1/l31/cache=true/deferred=false":  "0d4d1e42ecba025ab3428ff2e04634947b415d54d04ad2cc7d7f10d431808315",
	"w4/r1/l31/cache=true/deferred=true":   "1e773aa06bdb2615e516e7ac82daeab45af353dd048c02285e0b41ac76faf826",
	"w4/r1/l8/cache=false/deferred=false":  "5a3426eb263b44b0ca7e272d97fd98d5651425025cd5367956643a39f44e6256",
	"w4/r1/l8/cache=false/deferred=true":   "55d74d81b495a331bb12ca52ada9bf12307611fdd0c5b3e3a76f2144e4f8085c",
	"w4/r1/l8/cache=true/deferred=false":   "2f351a0061a311219418a6b5d5644608848b896804975b630c540f8cdfbe35ae",
	"w4/r1/l8/cache=true/deferred=true":    "b93167e32d0bfb2c9e335fed458d2d12e732b3c4ddc2a3893df7c4039c76b555",
	"w4/r2/l31/cache=false/deferred=false": "a21b1e4564505779c7baa7b1026a1497e9ff70ffb9c75fdd334e0c2977264bc6",
	"w4/r2/l31/cache=false/deferred=true":  "1c0402e6ca7666da6b2060772d84b1980ac7a7e71f71d7d6ed38ee0d18d4bc02",
	"w4/r2/l31/cache=true/deferred=false":  "0494a6aa5d5e513633c565fc113c802ec31da24b91342709cf41e2bfb2be1d3f",
	"w4/r2/l31/cache=true/deferred=true":   "09cf9fa9041d4b592f1faf9ab7de9e0d81ba2a411552296632f4066fe382c063",
	"w4/r2/l8/cache=false/deferred=false":  "10ef10b31f39882431f95f7534d4774d13b9cedbbf9374befffcd84eaa8b8f39",
	"w4/r2/l8/cache=false/deferred=true":   "113b5dc1809d2db61a8b1852bfe64779f656dde609f37b51a4f6ef4514d4ed72",
	"w4/r2/l8/cache=true/deferred=false":   "0f45a0f06c59455dd5a0bba99f2bae8ca7eba94900ab00bc19f99251cbd39f99",
	"w4/r2/l8/cache=true/deferred=true":    "55dbe7ba365547cbd48e0d4eaa30f93e0b064c39fd1c44dd5e4f43c63d14e127",
	"w4/r3/l31/cache=false/deferred=false": "7f9d6fbcebaf75fe8c8cff3d83664d914cab6a5cd1f14f6dcace75ec44b56a9a",
	"w4/r3/l31/cache=false/deferred=true":  "de77def7c08db90c6da6c1046b99e6dc8519618403c6d268e2e210c153337c88",
	"w4/r3/l31/cache=true/deferred=false":  "b780d9df8e332d10c8f55b52b3f30ae98dbb2dfcdb6e9ce4cdd3283380620b21",
	"w4/r3/l31/cache=true/deferred=true":   "c43697f14d80f6504bb1bf24e893df74bb100df1bc71c9c35735195fe7ceaa5e",
	"w4/r3/l8/cache=false/deferred=false":  "d579d4395739af699287c43796cd5efe8689c84351f322175737559fba093ae8",
	"w4/r3/l8/cache=false/deferred=true":   "0eb49c649435e6883ffe15b8d7fde46a51e223c93e6d83bec6a7b5e84633159c",
	"w4/r3/l8/cache=true/deferred=false":   "d579d4395739af699287c43796cd5efe8689c84351f322175737559fba093ae8",
	"w4/r3/l8/cache=true/deferred=true":    "0eb49c649435e6883ffe15b8d7fde46a51e223c93e6d83bec6a7b5e84633159c",
	"w8/r0/l31/cache=false/deferred=false": "986cedaf348164e2ac8a35a164da75e1cd6a10970724c3caaa89f525dbf93dd0",
	"w8/r0/l31/cache=false/deferred=true":  "daa27ac905b82594717e17bf4681b59ade89e255168060e1b3c4700200e1fbb3",
	"w8/r0/l31/cache=true/deferred=false":  "4105271f537f13931dcaa12dd97a5aec1678fea529a2899f516056730e6acb9f",
	"w8/r0/l31/cache=true/deferred=true":   "99ae88835ea1828a007c4c9acb063770e7c03bc96299fe47d66b674928a25bf6",
	"w8/r0/l8/cache=false/deferred=false":  "33e271b54f83dc6e9fb98bb52650be1b3d6ed2c4b09d66a7e9bf1a60cc239ed1",
	"w8/r0/l8/cache=false/deferred=true":   "8af103d8ad795e9057d6db6424efed016990cc1a2f670fa3c7a72f188512b4ae",
	"w8/r0/l8/cache=true/deferred=false":   "dd694275d7b788b649e451c923a6bc97b88f0a99160475b98378d1903ee47b12",
	"w8/r0/l8/cache=true/deferred=true":    "b20abed61921633ac70572c7a8e6b7eb3618587102a9d4cd0a2379ed468e73e7",
	"w8/r1/l31/cache=false/deferred=false": "8aa8da76e7d68ca18f51ef1d1773f4ea9d2a7878add0995217b09f7afc915dec",
	"w8/r1/l31/cache=false/deferred=true":  "60c4a9ce101e003f2e44deb9a6cbe16bf77aab64d1fcf44faa0642af713f1ca0",
	"w8/r1/l31/cache=true/deferred=false":  "511f80dcfcf01931fcaa623a063cc1cee241f1fd09ea7d27162ca7f95c1bce36",
	"w8/r1/l31/cache=true/deferred=true":   "15d35d1392a2ad0b21e087e8ba342e8fbc00c38294f1789892f1e7cdaf228d5e",
	"w8/r1/l8/cache=false/deferred=false":  "7afc03ba6c79dabf1e85c2729438e0e900499cd8b4921ab7e8a6bb49b63bb7b1",
	"w8/r1/l8/cache=false/deferred=true":   "3f008aaf837eedc2bb0d9d7540ae94c0d59efbb2445c6f7ced36540454d4ab84",
	"w8/r1/l8/cache=true/deferred=false":   "ba3a7b95f4c3504c069e0ebdb873824151432e0ef71ab024685b5411d092bc9c",
	"w8/r1/l8/cache=true/deferred=true":    "a600e4aa2ba069947a9c227ff235134c88abfd8e7a1e3543753ce11cc1b93248",
	"w8/r2/l31/cache=false/deferred=false": "bbbe2b08d78a33be3b08ad919c0b0229d78a719216726abe2524573bf94c35a3",
	"w8/r2/l31/cache=false/deferred=true":  "f64cc7d788ceab8e00e64831d176dc3f1ea6fdaaaa49cb19368c2cb53f9c0393",
	"w8/r2/l31/cache=true/deferred=false":  "47b387c1fbc79782cffa2b8d96a21a0c851d6dbe9009e9b2bccf402f08e7c5f3",
	"w8/r2/l31/cache=true/deferred=true":   "1b2495a733e9dcef33964f881c9df22d610f3ba0a7e8518ac0b014847bc38303",
	"w8/r2/l8/cache=false/deferred=false":  "e346de6cd3f10a30e551781bd9f7df9fba680ce07a024a122642005fa752ce99",
	"w8/r2/l8/cache=false/deferred=true":   "b247dceadeef9c976c37661fd0bebb4c1a9878887adc93682ff66fe388cfe0e1",
	"w8/r2/l8/cache=true/deferred=false":   "c59c05fd5e9bb1680df15436b9bd49248a2afc7733b1859fdfe739ecdb4ef5e9",
	"w8/r2/l8/cache=true/deferred=true":    "ac11208284f93ace43e2450497b19c821c47581b174dc1690454ab5d8d339aef",
	"w8/r3/l31/cache=false/deferred=false": "685e02d87586610fd6ebf81fbda44daf3f74ba1cf55bbf3be3f67392e6fb1ae1",
	"w8/r3/l31/cache=false/deferred=true":  "06f64b2dc2b16c371460619aea5c31d2bd4a72ad907efa8e7592d7ccab9add6c",
	"w8/r3/l31/cache=true/deferred=false":  "ea134d934aa986e0adbd7ca9d41b6edf59e594d288c59865b94b95f9a9648b36",
	"w8/r3/l31/cache=true/deferred=true":   "d93ef081399ebd32f2a2649aac660b338b05fa8058c46779a153be58276c67ad",
	"w8/r3/l8/cache=false/deferred=false":  "e3f7f3179bb4793729fde4e18240b72755532b4eb8b5e29b7bf64988974e89df",
	"w8/r3/l8/cache=false/deferred=true":   "9b750d7c72ccdcd91a13dbff7bf45c04cba0409c83e4be06ab5a427041709079",
	"w8/r3/l8/cache=true/deferred=false":   "8463babc6a857afa07ff1e430c0bf28d550efee483cf02f80444937efb97afbb",
	"w8/r3/l8/cache=true/deferred=true":    "be293256d09cf03707669b1bde03131772d8d995641a14285bee9bea8246a828",
}
