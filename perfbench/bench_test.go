package main

import (
	"fmt"
	"reflect"
	"testing"
)

// firstRequests draws n requests from client c's stream.
func firstRequests(seed uint64, c, n int) []request {
	next := clientSequence(seed, c)
	var out []request
	for i := 0; i < n; i++ {
		r, ok := next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	cases := []struct {
		name string
		gen  func(seed uint64) any
	}{
		{"full order", func(s uint64) any { return fullOrder(s, 3) }},
		{"sampled order", func(s uint64) any { return sampledOrder(s, 0) }},
		{"miss order", func(s uint64) any { return missOrder(s) }},
		{"client 0 mix", func(s uint64) any { return firstRequests(s, 0, 5000) }},
		{"client 1 mix", func(s uint64) any { return firstRequests(s, 1, 5000) }},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.gen(7), c.gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", c.name)
		}
		// Some pair of seeds must differ; sampledOrder has only 4! orders,
		// so any one pair may collide.
		differs := false
		for s := uint64(1); s <= 8 && !differs; s++ {
			differs = !reflect.DeepEqual(c.gen(s), c.gen(s+1))
		}
		if !differs {
			t.Errorf("%s: seeds 1..9 all gave the same input", c.name)
		}
	}
	if reflect.DeepEqual(fullOrder(1, 0), fullOrder(1, 1)) {
		t.Error("two passes of one run share an order")
	}
}

func TestSeedChangesOrderNotComposition(t *testing.T) {
	count := func(xs []string) map[string]int {
		m := map[string]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	want := count(programs())
	for s := uint64(1); s <= 20; s++ {
		if got := count(fullOrder(s, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: full pass runs %v, want each program once", s, got)
		}
		miss := missOrder(s)
		seen := map[string]bool{}
		for i, m := range miss {
			if seen[m.id()] {
				t.Fatalf("seed %d: miss %s repeats, so it would be a hit", s, m.id())
			}
			seen[m.id()] = true
			if i < 2 {
				continue
			}
			// Every block of len(programs) plain misses covers each program once.
			block := (i - 2) / len(programs())
			if i-2 == block*len(programs()) {
				names := []string{}
				for _, b := range miss[i : i+len(programs())] {
					names = append(names, b.Workload)
				}
				if got := count(names); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: miss block %d covers %v", s, block, got)
				}
			}
		}
		if len(miss) != len(missPool()) {
			t.Fatalf("seed %d: %d misses, pool has %d", s, len(miss), len(missPool()))
		}
	}
}

func TestEveryServiceRunHasHitsAndMisses(t *testing.T) {
	specials := map[string]bool{}
	for _, s := range specialMisses() {
		specials[s.id()] = true
	}
	for s := uint64(1); s <= 20; s++ {
		firstMisses := map[string]bool{}
		for c := 0; c < clients; c++ {
			// The shortest run still completes each client's first block.
			reqs := firstRequests(s, c, hitsPerMiss+1)
			hits, misses := 0, 0
			for _, r := range reqs {
				if r.Miss {
					misses++
					firstMisses[r.Spec.id()] = true
				} else {
					hits++
				}
			}
			if misses != 1 || hits != hitsPerMiss {
				t.Fatalf("seed %d client %d: first block has %d hits, %d misses", s, c, hits, misses)
			}
		}
		if !reflect.DeepEqual(firstMisses, specials) {
			t.Fatalf("seed %d: first misses %v, want the specials (sampled and policy/topology)", s, firstMisses)
		}
	}
}

func TestHotSetAndPoolAreDisjoint(t *testing.T) {
	hot := map[string]bool{}
	for _, s := range hotSpecs() {
		hot[s.id()] = true
	}
	for _, s := range missPool() {
		if hot[s.id()] {
			t.Fatalf("pool spec %s is in the hot set: it would never miss", s.id())
		}
	}
	// The whole pool must fit in emsimd's result cache beside the hot set,
	// so that a miss never evicts a hot spec.
	if n := len(hot) + len(missPool()); n > daemonCache {
		t.Fatalf("%d distinct specs exceed the service cache of %d", n, daemonCache)
	}
}

func TestTracedRunPrefersItsOwnWorkload(t *testing.T) {
	own := &outcome{}
	own.add("gap.sampled_pct", "%", 1, "")
	own.add("workloads.gen_ns_per_event", "ns/event", 2, "")
	full := &outcome{}
	full.add("workloads.gen_ns_per_event", "ns/event", 3, "4 runs")
	full.add("gap.full_pct", "%", 4, "")
	got := pickLayers([]string{"sampled", "full"}, []*outcome{own, full})
	want := []metric{
		{"workloads.gen_ns_per_event", "ns/event", 2, ""},
		{"gap.full_pct", "%", 4, "from the full complement round"},
		{"gap.sampled_pct", "%", 1, ""},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pickLayers = %+v, want %+v", got, want)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 1000, pct: 99, value: 990, beyond: 10, ok: true},
		{n: 999, pct: 90, value: 900, beyond: 99, ok: true},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10, ok: true},
		{n: 100, pct: 90, value: 90, beyond: 10, ok: true},
		{n: 21, pct: 50, value: 11, beyond: 10, ok: true},
		{n: 20, pct: 50, value: 10, beyond: 10, ok: true},
		{n: 19, ok: false},
	}
	for _, c := range cases {
		pct, v, beyond, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (pct != c.pct || v != c.value || beyond != c.beyond)) {
			t.Errorf("n=%d: tail = p%g %g (%d beyond, ok=%v), want p%g %g (%d beyond, ok=%v)",
				c.n, pct, v, beyond, ok, c.pct, c.value, c.beyond, c.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFlippedByteFailsDigestCheck(t *testing.T) {
	out := []byte(`{"workload":"mst","instr":100000}` + "\n")
	table := map[string]string{"mst": digest(out)}
	if err := check(table, "mst", out, false); err != nil {
		t.Fatalf("intact output rejected: %v", err)
	}
	for i := range out {
		bad := append([]byte(nil), out...)
		bad[i] ^= 0x01
		if err := check(table, "mst", bad, false); err == nil {
			t.Fatalf("byte %d flipped, digest check passed", i)
		}
	}
	if err := check(table, "em3d", out, false); err == nil {
		t.Fatal("output with no golden digest passed")
	}
}

func TestGoldenCoversEveryOutput(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	need := func(table map[string]string, key string) {
		if _, ok := table[key]; !ok {
			missing = append(missing, key)
		}
	}
	for _, n := range programs() {
		need(g.Full, n+"/json")
		need(g.Full, n+"/timeline")
	}
	for _, k := range []string{"em3d", "mcf", traceFile} {
		need(g.Truth, k)
	}
	for _, op := range allSampledOps() {
		need(g.Sampled, op.id())
	}
	for _, s := range append(hotSpecs(), missPool()...) {
		need(g.Service, s.id())
	}
	if len(missing) > 0 {
		t.Fatalf("golden.json lacks %d digests, e.g. %s; run `bash perfbench/bench.sh regen`", len(missing), fmt.Sprint(missing[0]))
	}
}
