package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/workloads/suite"
)

// The shapes every op runs at. The golden digests in golden.json are
// computed at exactly these values: change one, then run `regen`.
const (
	// fullInstr is the budget of every `full` op. At it a pass over the
	// 18 programs takes a few seconds on a 2-core host, and the
	// simulation, not process and workload start-up, is most of an op.
	fullInstr = 4_000_000
	// timelineInterval is emsim's default -interval.
	timelineInterval = 1_000_000

	// The `sampled` shape: em3d in the e2e acceptance shape, plus
	// 181.mcf replayed from a trace recorded during set-up. The mcf
	// budget makes a replayed op take about as long as an em3d op, so
	// the median op is not a choice between two clusters.
	sampleEm3dInstr = 8_000_000
	sampleMcfInstr  = 16_000_000
	sampleInterval  = 40_000
	sampleClusters  = 4
	sampleWarmup    = 3
	traceFile       = "mcf.trace"

	// The `service` shape. Hot specs are tiny so seeding the store is
	// cheap; a reply's size does not depend on the budget.
	hotInstr  = 100_000
	missInstr = 200_000
	// missVariants budget variants per program make the miss pool. A run
	// must not exhaust it: at the measured mix a client misses about 6
	// times a second, so 48 variants (866 specs) last a 60 s run, or a
	// 20 s run of a service three times faster. A client that runs out
	// fails the run (see runService). The variants are missStep apart, so
	// every miss costs the same to within 24%.
	missVariants = 48
	missStep     = 1_000
	// hitsPerMiss sets the mix: each client sends one miss per
	// hitsPerMiss+1 requests, at a seeded position in each block. No
	// record of emsimd traffic exists, so the mix is set by a criterion
	// instead: the read side (hits) and the write side (misses) each
	// carry half of the clients' time, so an equal relative speed-up of
	// either side moves service_rps equally. The value is the measured
	// mean miss latency over the mean hit latency (README.md); every
	// service run prints the resulting miss_share_pct and the ratio that
	// would balance it, hits_per_miss_balanced.
	hitsPerMiss = 775
	clients     = 2
	daemonJobs  = 2
	// daemonCache is emsimd's -cache: room for the hot set and every
	// spec of the pool, so a miss never evicts a hot spec.
	daemonCache = 1024
)

// sampleSeeds is the fixed set of -sample-seed values a `sampled` round
// covers. The run seed permutes which op uses which; a fixed set keeps
// every round's cost the same, so runs with different seeds compare.
var sampleSeeds = []uint64{1, 2}

// programs is the registered workload list, in registry order.
func programs() []string { return suite.Names() }

// rng is splitmix64: a tiny, toolchain-independent generator, so a seed
// names the same inputs on every Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fullOrder is the program order of one `full` pass.
func fullOrder(seed uint64, pass int) []string {
	names := programs()
	p := newRNG(seed, fmt.Sprintf("full/%d", pass)).perm(len(names))
	out := make([]string, len(names))
	for i, j := range p {
		out[i] = names[j]
	}
	return out
}

// sampledOp is one `emsim -sample` invocation.
type sampledOp struct {
	Input      string // "em3d" (generated) or "mcf" (replayed)
	SampleSeed uint64
}

func (o sampledOp) id() string { return fmt.Sprintf("%s/%d", o.Input, o.SampleSeed) }

// allSampledOps is one round: every input at every sample seed.
func allSampledOps() []sampledOp {
	var ops []sampledOp
	for _, in := range []string{"em3d", "mcf"} {
		for _, s := range sampleSeeds {
			ops = append(ops, sampledOp{in, s})
		}
	}
	return ops
}

// sampledOrder is the op order of one `sampled` round.
func sampledOrder(seed uint64, round int) []sampledOp {
	all := allSampledOps()
	p := newRNG(seed, fmt.Sprintf("sampled/%d", round)).perm(len(all))
	out := make([]sampledOp, len(all))
	for i, j := range p {
		out[i] = all[j]
	}
	return out
}

// reqSpec is one /run request body. Field names and omitempty rules
// follow service.RunSpec.
type reqSpec struct {
	Workload       string `json:"workload"`
	Instr          uint64 `json:"instr,omitempty"`
	Cores          int    `json:"cores,omitempty"`
	Policy         string `json:"policy,omitempty"`
	Topology       string `json:"topology,omitempty"`
	Sample         bool   `json:"sample,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleClusters int    `json:"sample_clusters,omitempty"`
}

// id names the spec in golden.json.
func (s reqSpec) id() string {
	b, _ := json.Marshal(s) // a struct of strings and numbers always encodes
	return string(b)
}

// hotSpecs is the set seeded into the store during set-up: every program
// at two core counts.
func hotSpecs() []reqSpec {
	var out []reqSpec
	for _, cores := range []int{4, 2} {
		for _, n := range programs() {
			out = append(out, reqSpec{Workload: n, Instr: hotInstr, Cores: cores})
		}
	}
	return out
}

// specialMisses are in every run: a sampled request and a non-default
// policy/topology request, each the first miss of one client.
func specialMisses() []reqSpec {
	return []reqSpec{
		{Workload: "mst", Instr: 500_000, Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4},
		{Workload: "em3d", Instr: missInstr, Cores: 4, Policy: "numa", Topology: "ring"},
	}
}

// missPool is every spec a run may miss on: the specials plus each
// program at missVariants budgets. None is in the hot set.
func missPool() []reqSpec {
	out := specialMisses()
	for v := 0; v < missVariants; v++ {
		for _, n := range programs() {
			out = append(out, reqSpec{Workload: n, Instr: missInstr + uint64(v)*missStep, Cores: 4})
		}
	}
	return out
}

// missOrder is the run's miss sequence. After the two specials, every
// block of len(programs) misses covers each program once, at a budget
// variant each program uses only once per run, so two seeds miss on
// equally costly mixes in different orders.
func missOrder(seed uint64) []reqSpec {
	names := programs()
	r := newRNG(seed, "service/miss")
	out := specialMisses()
	if r.intn(2) == 1 {
		out[0], out[1] = out[1], out[0]
	}
	variants := make([][]int, len(names))
	for i := range names {
		variants[i] = r.perm(missVariants)
	}
	for block := 0; block < missVariants; block++ {
		for _, i := range r.perm(len(names)) {
			out = append(out, reqSpec{Workload: names[i], Instr: missInstr + uint64(variants[i][block])*missStep, Cores: 4})
		}
	}
	return out
}

// request is one op of a service client.
type request struct {
	Spec reqSpec
	Miss bool
}

// interleaved returns the clients' streams merged one request from each
// in turn, the order the traced pass replays them in.
func interleaved(seed uint64) func() (request, bool) {
	seqs := make([]func() (request, bool), clients)
	for c := range seqs {
		seqs[c] = clientSequence(seed, c)
	}
	i := 0
	return func() (request, bool) {
		i++
		return seqs[(i-1)%clients]()
	}
}

// clientSequence returns client c's request stream: blocks of
// hitsPerMiss+1 requests, each with one miss at a seeded position and
// hits on seeded hot specs. misses are the client's share of missOrder
// (every clients-th entry); the stream ends when they run out.
func clientSequence(seed uint64, c int) func() (request, bool) {
	hot := hotSpecs()
	all := missOrder(seed)
	var misses []reqSpec
	for i := c; i < len(all); i += clients {
		misses = append(misses, all[i])
	}
	r := newRNG(seed, fmt.Sprintf("service/client/%d", c))
	pos, missAt, mi := 0, 0, 0
	return func() (request, bool) {
		if pos%(hitsPerMiss+1) == 0 {
			missAt = pos + r.intn(hitsPerMiss+1)
		}
		pos++
		if pos-1 == missAt {
			if mi == len(misses) {
				return request{}, false
			}
			mi++
			return request{Spec: misses[mi-1], Miss: true}, true
		}
		return request{Spec: hot[r.intn(len(hot))]}, true
	}
}
