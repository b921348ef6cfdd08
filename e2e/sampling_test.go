// Sampling end-to-end tests: the emsim -sample surface against its
// acceptance contract — estimates land inside their own error bars
// against a full-fidelity run, the savings are real, the output is
// byte-identical for every worker count, and the service emits the same
// bytes as the CLI for the same parameters.
package e2e

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleFlags are the canonical sampling parameters. The warmup of 3
// intervals matters: migrations are a long-horizon metric (the affinity
// table takes many intervals of history to reach migration steady
// state), and with too little warmup the measured intervals
// systematically under-migrate — the bias EXPERIMENTS.md documents.
// Three 40k-instr intervals keep the migration estimate inside its bars
// while the measured set still amortizes past the 10x savings floor.
var sampleFlags = []string{"-sample", "-sample-interval", "40000", "-sample-clusters", "4", "-sample-warmup", "3"}

// sampleArgs is the canonical sampled invocation: em3d is the workload
// the acceptance criterion names.
func sampleArgs(extra ...string) []string {
	args := append([]string{"-workload", "em3d", "-instr", "8000000", "-cores", "4"}, sampleFlags...)
	return append(args, extra...)
}

// TestEmsimSampleGolden locks the ESTIMATED report format: the
// canonical em3d run, and a scenario whose policy carries state from
// one measured interval to the next (numa's distance hysteresis on an
// 8-core ring).
func TestEmsimSampleGolden(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		scenario     []string
	}{
		{"em3d", "emsim_sample_em3d.golden",
			[]string{"-workload", "em3d", "-instr", "8000000", "-cores", "4"}},
		{"mst_numa_ring", "emsim_sample_mst_numa_ring.golden",
			[]string{"-workload", "mst", "-instr", "8000000", "-cores", "8", "-policy", "numa", "-topology", "ring"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append(tc.scenario, sampleFlags...), "-j", "1")
			stdout, _ := runCLI(t, "emsim", args...)
			if !strings.Contains(stdout, "ESTIMATED") {
				t.Fatalf("sampled report is not labelled ESTIMATED:\n%s", stdout)
			}
			checkGolden(t, tc.golden, []byte(stdout))
		})
	}
}

// TestEmsimSampleVerifyWithinBars runs the sampled estimate against the
// full-fidelity run on the same stream: every metric must land inside
// its reported 95% interval ("within bars" must never say NO), which is
// the documented accuracy contract of -sample.
func TestEmsimSampleVerifyWithinBars(t *testing.T) {
	stdout, _ := runCLI(t, "emsim", sampleArgs("-sample-verify", "-j", "0")...)
	if !strings.Contains(stdout, "sample verification") {
		t.Fatalf("-sample-verify printed no verification table:\n%s", stdout)
	}
	for _, line := range strings.Split(stdout, "\n") {
		if strings.Contains(line, "NO") {
			t.Errorf("estimate outside its error bars: %s", line)
		}
	}
}

// TestEmsimSampleSavingsAndDeterminism: the estimate must come from at
// least 10x fewer simulated events than the full run (the acceptance
// floor), and the JSON must be byte-identical across -j 1/2/4 — the
// chain jobs merge in index order, so the worker count may not leak
// into a single byte of output.
func TestEmsimSampleSavingsAndDeterminism(t *testing.T) {
	ref, _ := runCLI(t, "emsim", sampleArgs("-json", "-j", "1")...)
	var res struct {
		Estimated       bool    `json:"estimated"`
		Events          uint64  `json:"events"`
		SimulatedEvents uint64  `json:"simulated_events"`
		Savings         float64 `json:"savings"`
	}
	if err := json.Unmarshal([]byte(ref), &res); err != nil {
		t.Fatalf("decoding sampled JSON: %v\n%s", err, ref)
	}
	if !res.Estimated {
		t.Fatal("sampled JSON not marked estimated")
	}
	if res.Savings < 10 || res.SimulatedEvents*10 > res.Events {
		t.Fatalf("savings %.1fx (%d of %d events simulated), want >= 10x",
			res.Savings, res.SimulatedEvents, res.Events)
	}
	for _, j := range []string{"2", "4"} {
		out, _ := runCLI(t, "emsim", sampleArgs("-json", "-j", j)...)
		if out != ref {
			t.Fatalf("-j %s JSON diverged from -j 1:\n--- j=%s ---\n%s\n--- j=1 ---\n%s", j, j, out, ref)
		}
	}
}

// TestTablesSampleMatchesEmsim: tables -sample runs each workload
// through the same report driver, so its per-workload savings column
// and the emsim run agree; serial and parallel tables are identical.
func TestTablesSampleDeterminism(t *testing.T) {
	args := []string{"-sample", "-instr", "500000", "-sample-interval", "20000",
		"-sample-clusters", "4", "-only", "mst,em3d"}
	serial, _ := runCLI(t, "tables", append(args, "-j", "1")...)
	if !strings.Contains(serial, "ESTIMATED") {
		t.Fatalf("tables -sample output is not labelled ESTIMATED:\n%s", serial)
	}
	parallel, _ := runCLI(t, "tables", append(args, "-j", "2")...)
	if serial != parallel {
		t.Fatalf("tables -sample diverged between -j 1 and -j 2:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestEmsimcSampleMatchesEmsimJSON: a sampled /run through the daemon
// returns the same bytes as `emsim -sample -json` — both surfaces front
// the same report driver with the same defaults, and the cache key
// distinguishes sampled from full runs (the warm repeat is a hit).
func TestEmsimcSampleMatchesEmsimJSON(t *testing.T) {
	serial, _ := runCLI(t, "emsim", "-json",
		"-workload", "mst", "-instr", "500000", "-cores", "4",
		"-sample", "-sample-interval", "20000", "-sample-clusters", "4", "-j", "1")

	d := startDaemon(t)
	runArgs := []string{"-addr", d.addr, "run",
		"-workload", "mst", "-instr", "500000", "-cores", "4",
		"-sample", "-sample-interval", "20000", "-sample-clusters", "4"}
	cold, coldErr := runCLI(t, "emsimc", runArgs...)
	if cold != serial {
		t.Fatalf("service sampled run diverged from CLI:\n--- service ---\n%s\n--- cli ---\n%s", cold, serial)
	}
	if !strings.Contains(coldErr, "cache miss") {
		t.Fatalf("first sampled request not a cache miss: %s", coldErr)
	}
	warm, warmErr := runCLI(t, "emsimc", runArgs...)
	if warm != serial {
		t.Fatalf("cached sampled run diverged:\n%s", warm)
	}
	if !strings.Contains(warmErr, "cache hit") {
		t.Fatalf("repeat sampled request not a cache hit: %s", warmErr)
	}

	// The full-fidelity run of the same workload must be a different
	// cache entry (sampling params only join the key when sample=true).
	full, fullErr := runCLI(t, "emsimc", "-addr", d.addr, "run",
		"-workload", "mst", "-instr", "500000", "-cores", "4")
	if full == serial {
		t.Fatal("full run returned the sampled body: cache keys collide")
	}
	if !strings.Contains(fullErr, "cache miss") {
		t.Fatalf("full run after sampled run not a distinct cache miss: %s", fullErr)
	}
}

// TestEmsimReplaySample samples a recorded mst trace. The chain lanes
// resume the trace at positions the profile pass recorded, so this is
// the one e2e check of resumed replays: the JSON must be byte-identical
// across -j 1/2/4 and carry the estimates of sampling the workload
// itself, identity fields (workload, replay, instr) aside.
func TestEmsimReplaySample(t *testing.T) {
	scenario := []string{"-workload", "mst", "-instr", "8000000"}
	path := filepath.Join(t.TempDir(), "mst.trace")
	runCLI(t, "emsim", append([]string{"-record", path}, scenario...)...)
	sampled := func(input []string, j string) string {
		args := append(append(append([]string{"-json", "-cores", "4"}, input...), sampleFlags...), "-j", j)
		out, _ := runCLI(t, "emsim", args...)
		return out
	}
	ref := sampled([]string{"-replay", path}, "1")
	for _, j := range []string{"2", "4"} {
		if out := sampled([]string{"-replay", path}, j); out != ref {
			t.Fatalf("-j %s sampled replay diverged from -j 1:\n--- j=%s ---\n%s\n--- j=1 ---\n%s", j, j, out, ref)
		}
	}
	withoutIdentity := func(out string) map[string]any {
		var m map[string]any
		if err := json.Unmarshal([]byte(out), &m); err != nil {
			t.Fatalf("decoding sampled JSON: %v\n%s", err, out)
		}
		delete(m, "workload")
		delete(m, "replay")
		delete(m, "instr")
		return m
	}
	got, want := withoutIdentity(ref), withoutIdentity(sampled(scenario, "1"))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampled replay diverged from the sampled workload:\n--- replay ---\n%v\n--- workload ---\n%v", got, want)
	}
}

// TestSampledBytesIgnoreCPUCount: the profile pass reads its input
// through a producer goroutine, and the chain lanes run on the worker
// pool, so the host's CPU count decides what overlaps. It may not
// decide a byte: emsim -sample -json is identical under GOMAXPROCS=1
// and the default, for a generated workload and a recorded replay.
func TestSampledBytesIgnoreCPUCount(t *testing.T) {
	inherited, oneCPU := cpuEnvs()
	path := filepath.Join(t.TempDir(), "mcf.trace")
	runCLI(t, "emsim", "-record", path, "-workload", "181.mcf", "-instr", "4000000")
	for name, input := range map[string][]string{
		"em3d":   {"-workload", "em3d", "-instr", "8000000"},
		"replay": {"-replay", path},
	} {
		t.Run(name, func(t *testing.T) {
			args := append(append([]string{"-json", "-cores", "4"}, input...), sampleFlags...)
			ref, _ := runCLIEnv(t, inherited, "emsim", args...)
			if got, _ := runCLIEnv(t, oneCPU, "emsim", args...); got != ref {
				t.Fatalf("GOMAXPROCS=1 output diverged from the default:\n--- GOMAXPROCS=1 ---\n%s\n--- default ---\n%s", got, ref)
			}
		})
	}
}
