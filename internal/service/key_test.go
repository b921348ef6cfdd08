package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/report"
	"repro/internal/run"
)

// TestRunKeyCanonicalization: the content address depends only on the
// normalized spec — JSON field order and spelled-out defaults are
// invisible, while every semantic field is load-bearing.
func TestRunKeyCanonicalization(t *testing.T) {
	base := RunSpec{Workload: "mst", Instr: run.DefaultInstr, Cores: run.DefaultCores}
	cases := []struct {
		name string
		body string // JSON request body
		same bool   // same key as base?
	}{
		{"identical", `{"workload":"mst","instr":20000000,"cores":4}`, true},
		{"field order reversed", `{"cores":4,"instr":20000000,"workload":"mst"}`, true},
		{"defaults omitted", `{"workload":"mst"}`, true},
		{"instr default spelled out", `{"workload":"mst","instr":20000000}`, true},
		{"different workload", `{"workload":"em3d"}`, false},
		{"different instr", `{"workload":"mst","instr":19999999}`, false},
		{"different cores", `{"workload":"mst","cores":8}`, false},
		// The scenario fields joined the key after the policy refactor:
		// spelled-out defaults still hash to the pre-policy key (cached
		// results stay addressable), non-defaults are load-bearing.
		{"default policy spelled out", `{"workload":"mst","policy":"michaud"}`, true},
		{"default topology spelled out", `{"workload":"mst","topology":"uniform"}`, true},
		{"both defaults spelled out", `{"workload":"mst","policy":"michaud","topology":"uniform"}`, true},
		{"numa policy", `{"workload":"mst","policy":"numa"}`, false},
		{"never policy", `{"workload":"mst","policy":"never"}`, false},
		{"cluster topology", `{"workload":"mst","topology":"cluster"}`, false},
		{"multiprogram", `{"programs":["mst","mst"]}`, false},
		// Sampling fields join the key only when sample=true, so every
		// full-run key (every case above) is byte-for-byte what it was
		// before sampling existed.
		{"sampled run", `{"workload":"mst","sample":true}`, false},
	}
	want := base.Key()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var spec RunSpec
			if err := json.Unmarshal([]byte(c.body), &spec); err != nil {
				t.Fatal(err)
			}
			got := spec.Key()
			if (got == want) != c.same {
				t.Fatalf("key(%s) = %s, base = %s, want same=%v", c.body, got, want, c.same)
			}
		})
	}
}

// TestSweepKeyCanonicalization: same contract for sweeps, including
// that the default size list and an explicitly spelled-out copy of it
// are one cache entry, and that point order is load-bearing.
func TestSweepKeyCanonicalization(t *testing.T) {
	def := SweepSpec{}.Key()
	explicit := SweepSpec{Sizes: report.DefaultSweepSizes(), Laps: report.DefaultSweepLaps, Cores: run.DefaultCores}
	if explicit.Key() != def {
		t.Fatal("spelled-out defaults hash differently from an empty spec")
	}
	a := SweepSpec{Sizes: []uint64{4096, 8192}}
	b := SweepSpec{Sizes: []uint64{8192, 4096}}
	if a.Key() == b.Key() {
		t.Fatal("size order is part of the result but not of the key")
	}
	if (SweepSpec{Laps: 41}).Key() == def {
		t.Fatal("laps not in the key")
	}
	if (SweepSpec{Cores: 8}).Key() == def {
		t.Fatal("cores not in the key")
	}
}

// TestSampleKeyCanonicalization: the sampling sub-parameters are
// load-bearing for sampled requests (each one distinguishes a
// different experiment), and spelled-out sampling defaults hash to the
// same key as a bare sample=true request.
func TestSampleKeyCanonicalization(t *testing.T) {
	base := RunSpec{Workload: "mst", Sample: true}
	want := base.Key()
	explicit := RunSpec{Workload: "mst", Sample: true,
		SampleInterval: run.DefaultSampleInterval, SampleClusters: run.DefaultSampleClusters,
		SampleSeed: run.DefaultSampleSeed, SampleWarmup: run.DefaultSampleWarmup}
	if explicit.Key() != want {
		t.Fatal("spelled-out sampling defaults hash differently from bare sample=true")
	}
	if base.Key() == (RunSpec{Workload: "mst"}).Key() {
		t.Fatal("sampled and full-fidelity runs share a cache entry")
	}
	for name, spec := range map[string]RunSpec{
		"interval": {Workload: "mst", Sample: true, SampleInterval: 40_000},
		"clusters": {Workload: "mst", Sample: true, SampleClusters: 4},
		"seed":     {Workload: "mst", Sample: true, SampleSeed: 7},
		"warmup":   {Workload: "mst", Sample: true, SampleWarmup: 3},
	} {
		if spec.Key() == want {
			t.Errorf("sample_%s not in the key", name)
		}
	}
}

// TestKeyNamespacesOps: a run and a sweep can never collide, whatever
// their fields.
func TestKeyNamespacesOps(t *testing.T) {
	if (RunSpec{Workload: "mst"}).Key() == (SweepSpec{}).Key() {
		t.Fatal("run and sweep keys share a namespace")
	}
}

// TestRunSpecValidate: Service.Run normalizes a spec before it
// validates it, rejects an unrunnable one as a bad request before any
// simulation is scheduled, and runs a spec whose omitted or spelled-out
// defaults normalize to a runnable one. (Every rejection rule is tabled
// in internal/run's TestSpecValidate.)
func TestRunSpecValidate(t *testing.T) {
	s := New(Config{Workers: 1})
	for _, bad := range []RunSpec{
		{Workload: "mst", Cores: 3},
		{Workload: "no-such-workload"},
		{},
		{Workload: "mst", Policy: "no-such-policy"},
		{Workload: "mst", Topology: "no-such-topology"},
		{Workload: "mst", Programs: []string{"em3d"}}, // mutually exclusive
		{Programs: []string{"no-such-workload"}},
		// Sampling parameters without sample=true would silently do
		// nothing — rejected so a typo isn't a different cache entry.
		{Workload: "mst", SampleInterval: 40_000},
		{Workload: "mst", SampleClusters: 4},
		{Workload: "mst", SampleSeed: 7},
		{Workload: "mst", SampleWarmup: 2},
		{Programs: []string{"mst", "em3d"}, Sample: true}, // mutually exclusive
		{Workload: "mst", Sample: true, SampleClusters: -1},
		{Workload: "mst", Sample: true, SampleWarmup: -1},
	} {
		_, _, err := s.Run(context.Background(), bad)
		var br *BadRequestError
		if !errors.As(err, &br) {
			t.Errorf("spec %+v: err = %v, want a bad request", bad, err)
		}
	}
	if got := s.metrics.CacheMisses.Value(); got != 0 {
		t.Fatalf("rejected specs reached the scheduler: %d cache misses", got)
	}
	for _, good := range []RunSpec{
		{Workload: "mst", Instr: 20_000},
		{Workload: "mst", Instr: 20_000, Cores: 0, Policy: "michaud", Topology: "uniform"},
		{Workload: "mst", Instr: 20_000, Policy: "numa", Topology: "ring"},
		{Programs: []string{"mst", "em3d"}, Instr: 20_000},
	} {
		if _, _, err := s.Run(context.Background(), good); err != nil {
			t.Errorf("valid spec %+v rejected: %v", good, err)
		}
	}
}

// TestSweepSpecValidate: unrunnable sweeps are rejected after
// normalization.
func TestSweepSpecValidate(t *testing.T) {
	for _, bad := range []SweepSpec{
		{Cores: 5},
		{Sizes: []uint64{0}},
	} {
		if err := bad.normalized().validate(); err == nil {
			t.Errorf("sweep spec %+v accepted", bad)
		}
	}
}

// TestPinnedKeys pins content addresses computed before the run spec
// moved into internal/run. The keys name results on disk (the store and
// the spool), so a refactor that changes one orphans every stored
// result of that shape.
func TestPinnedKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		key  string
		want string
	}{
		{"defaults", RunSpec{Workload: "mst"}.Key(),
			"d6bd51c01f23ad272518f5e87246bc935fe8e8c76361609748209826d6573e57"},
		{"instr and cores", RunSpec{Workload: "181.mcf", Instr: 100_000, Cores: 2}.Key(),
			"d96129e875e5d5a09288dc49768cdd851452dc45f9dcfe9215076043e81f3f10"},
		{"scenario", RunSpec{Workload: "em3d", Instr: 200_000, Cores: 4, Policy: "numa", Topology: "ring"}.Key(),
			"aef08f0863575b8a89cb3ac457025e3d3d1daa4144bc0650d18d33ce6813931e"},
		{"sampled", RunSpec{Workload: "mst", Instr: 500_000, Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4}.Key(),
			"06c3da8fdefcd1bf8141119cbaafae56464a1d6904e997724c34a852360790f0"},
		{"sample seed and warmup", RunSpec{Workload: "mst", Sample: true, SampleSeed: 7, SampleWarmup: 3}.Key(),
			"3b5b131c44677e542446b259664b708846161defbf0fd57beb7b51dca311342b"},
		{"programs", RunSpec{Programs: []string{"mst", "em3d"}}.Key(),
			"d205837ce9fddd736b6a311b95857c13f5bb69a6f6b2f2b87436ca9b118c2620"},
		{"sweep defaults", SweepSpec{}.Key(),
			"482b0974c7ed3c5d024f6c5c766f3c233e1cbb135f3723ff13d4a866b366ede8"},
	} {
		if c.key != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.key, c.want)
		}
	}
}
