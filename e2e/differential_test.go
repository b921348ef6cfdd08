package e2e

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// The differential suite proves the policy refactor changed nothing the
// paper's experiments can observe: every output of the pre-refactor
// binaries — report text, -json bytes, timeline JSONL, tables, the
// Fig. 3 affinity plot, an EMCKPT1 checkpoint — was recorded into
// testdata/prerefactor/ at the commit before the migration controller
// became a plugin, and the current binaries must reproduce each of them
// byte for byte, serially and under every worker count; the checkpoint,
// written in the format emsim no longer writes, must resume to the
// recorded output. These goldens are a historical record: they are
// never regenerated with -update.

// readPrerefactor loads one recorded pre-refactor output.
func readPrerefactor(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "prerefactor", name))
	if err != nil {
		t.Fatalf("missing pre-refactor golden (recorded once, never regenerated): %v", err)
	}
	return b
}

// diffBytes fails with a readable diff context when got != want.
func diffBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from the pre-refactor output:\n--- got ---\n%s\n--- want ---\n%s", label, got, want)
	}
}

// TestDifferentialEmsimJSON: `emsim -json` is byte-identical to the
// pre-refactor binary for every recorded configuration, for serial and
// parallel engines, and with the default scenario spelled out
// explicitly (-policy michaud -topology uniform must be a no-op).
func TestDifferentialEmsimJSON(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"emsim_json_mst.golden", []string{"-workload", "mst", "-instr", "200000", "-cores", "4"}},
		{"emsim_json_art2.golden", []string{"-workload", "179.art", "-instr", "300000", "-cores", "2"}},
		{"emsim_json_em3d8.golden", []string{"-workload", "em3d", "-instr", "200000", "-cores", "8"}},
	}
	for _, tc := range cases {
		want := readPrerefactor(t, tc.golden)
		for _, j := range []string{"1", "2", "4"} {
			stdout, _ := runCLI(t, "emsim", append(tc.args, "-json", "-j", j)...)
			diffBytes(t, fmt.Sprintf("%s -j %s", tc.golden, j), []byte(stdout), want)
		}
		explicit := append(tc.args, "-policy", "michaud", "-topology", "uniform", "-json", "-j", "1")
		stdout, _ := runCLI(t, "emsim", explicit...)
		diffBytes(t, tc.golden+" (explicit defaults)", []byte(stdout), want)
	}
}

// TestDifferentialEmsimReport: the human-readable report is unchanged.
func TestDifferentialEmsimReport(t *testing.T) {
	want := readPrerefactor(t, "emsim_report_mst.golden")
	stdout, _ := runCLI(t, "emsim", "-workload", "mst", "-instr", "200000", "-cores", "4")
	diffBytes(t, "emsim report", []byte(stdout), want)
}

// TestDifferentialEmsimTimeline: the per-interval timeline JSONL is
// unchanged (the telemetry metric set must not have grown for default
// machines — a new always-registered counter would change these rows).
func TestDifferentialEmsimTimeline(t *testing.T) {
	want := readPrerefactor(t, "emsim_timeline_mst.golden")
	for _, j := range []string{"1", "2"} {
		tl := filepath.Join(t.TempDir(), "tl.jsonl")
		runCLI(t, "emsim", "-workload", "mst", "-instr", "200000", "-cores", "4",
			"-interval", "50000", "-timeline", tl, "-json", "-j", j)
		got, err := os.ReadFile(tl)
		if err != nil {
			t.Fatal(err)
		}
		diffBytes(t, "emsim timeline -j "+j, got, want)
	}
}

// TestDifferentialTables: Table 1 + Table 2 bytes are unchanged across
// worker counts.
func TestDifferentialTables(t *testing.T) {
	want := readPrerefactor(t, "tables_small.golden")
	for _, j := range []string{"1", "2"} {
		stdout, _ := runCLI(t, "tables", "-instr", "1000000", "-only", "179.art,181.mcf,mst", "-j", j)
		diffBytes(t, "tables -j "+j, []byte(stdout), want)
	}
}

// TestDifferentialFig3: the affinity-visualisation plot is unchanged.
func TestDifferentialFig3(t *testing.T) {
	want := readPrerefactor(t, "fig3.golden")
	stdout, _ := runCLI(t, "affinityviz")
	diffBytes(t, "fig3", []byte(stdout), want)
}

// TestDifferentialCheckpointBytes: the frozen EMCKPT1 checkpoint of the
// pre-refactor binary resumes to that binary's recorded -json output,
// and the same run writes pinned EMCKPT2 bytes today — the same bytes
// when the defaults are spelled out.
func TestDifferentialCheckpointBytes(t *testing.T) {
	frozen := filepath.Join("testdata", "prerefactor", "emsim_mst.ckpt.golden")
	resumed, _ := runCLI(t, "emsim", "-resume", frozen, "-json")
	diffBytes(t, "resume of the frozen EMCKPT1 checkpoint", []byte(resumed), readPrerefactor(t, "emsim_json_mst.golden"))

	base := []string{"-workload", "mst", "-instr", "200000", "-cores", "4", "-checkpoint-every", "100000"}
	for _, extra := range [][]string{
		nil,
		{"-policy", "michaud", "-topology", "uniform"},
	} {
		checkCheckpointSHA(t, append(append([]string{}, base...), extra...),
			"3998db64a2485b15de306bf540c6f14ee521a3af7d23234c3168403f7806c9a0")
	}
}

// TestEMCKPT2FrozenResume: an EMCKPT2 checkpoint written before the
// snapshot lost its finite-L3 section resumes to the recorded -json
// output. Gob matches fields by name, so the section's descriptor in
// the old file is skipped; the file pins that it stays readable.
func TestEMCKPT2FrozenResume(t *testing.T) {
	frozen := filepath.Join("testdata", "emsim_mst_emckpt2.ckpt.golden")
	resumed, _ := runCLI(t, "emsim", "-resume", frozen, "-json")
	diffBytes(t, "resume of the frozen EMCKPT2 checkpoint", []byte(resumed), readPrerefactor(t, "emsim_json_mst.golden"))
}

// checkCheckpointSHA runs emsim with args, checkpointing, and compares
// the checkpoint file's SHA-256 against the recorded one. The bytes are
// pinned only through the emsim process: gob numbers its types per
// process in first-use order, so an in-process WriteCheckpoint's bytes
// depend on what the process encoded before.
func checkCheckpointSHA(t *testing.T, args []string, sha string) {
	t.Helper()
	if sum := sha256.Sum256(checkpointOf(t, args)); hex.EncodeToString(sum[:]) != sha {
		t.Errorf("%v: checkpoint SHA-256 %x, recorded %s", args, sum, sha)
	}
}

// checkpointOf runs emsim with args, checkpointing, and returns the
// checkpoint file's bytes.
func checkpointOf(t *testing.T, args []string) []byte {
	t.Helper()
	ck := filepath.Join(t.TempDir(), "run.ckpt")
	runCLI(t, "emsim", append(args, "-checkpoint", ck, "-json")...)
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCheckpointBytesTwoAndEightCores pins the EMCKPT2 bytes of a 2-core
// and an 8-core run by SHA-256, like the 4-core run above: the
// splitter's state has one shape per core count, and each must keep its
// bytes. Both runs checkpoint mid-stream, so the splitter's window,
// registers and filters are all live.
func TestCheckpointBytesTwoAndEightCores(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sha  string
	}{
		{[]string{"-workload", "179.art", "-instr", "300000", "-cores", "2", "-checkpoint-every", "50000"},
			"772f208b0c6a19701dedcbb61c9d0d458b9adf42443ec2de8c3dacbf1290123a"},
		{[]string{"-workload", "em3d", "-instr", "200000", "-cores", "8", "-checkpoint-every", "100000"},
			"a7e984c9b56e7debe59b0345f52c3927b25c96284ffadabf924cd72a4d626905"},
	} {
		checkCheckpointSHA(t, tc.args, tc.sha)
	}
}

// TestCheckpointBytesPolicies pins by SHA-256 the EMCKPT2 bytes of the
// scenarios beyond the default: numa on a ring (captured here with a
// move in flight: target 1, pending 2), the never baseline, and the
// default policy on a ring. TestPolicyCheckpointRoundTrip only proves
// these resume; this proves their encoding holds.
func TestCheckpointBytesPolicies(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sha  string
	}{
		{[]string{"-workload", "181.mcf", "-instr", "200000", "-cores", "4", "-policy", "numa", "-topology", "ring", "-checkpoint-every", "59000"},
			"6652066fb086cc212ab646a1c0e61ba111a2eca382639a1a69c835d9605f4492"},
		{[]string{"-workload", "181.mcf", "-instr", "200000", "-cores", "4", "-policy", "never", "-checkpoint-every", "100000"},
			"1e4e6c728830b59f21c497a6892859e7622e06d729eb7e5b1de7d6dae6fe969c"},
		{[]string{"-workload", "em3d", "-instr", "200000", "-cores", "4", "-topology", "ring", "-checkpoint-every", "100000"},
			"d52f1b93dc68abd64160a20a02f3fed77cbc8e254dda867a3eb8c5f092581712"},
	} {
		checkCheckpointSHA(t, tc.args, tc.sha)
	}
}

// TestCheckpointRingNamesOnlyTopology: the default policy ignores the
// topology, so its checkpoint on a ring decodes to the uniform chip's
// checkpoint but for the Topology name — its state is written once.
func TestCheckpointRingNamesOnlyTopology(t *testing.T) {
	base := []string{"-workload", "em3d", "-instr", "200000", "-cores", "4", "-checkpoint-every", "100000"}
	var cks []*machine.Checkpoint
	for _, topo := range []string{"uniform", "ring"} {
		path := filepath.Join(t.TempDir(), topo+".ckpt")
		if err := os.WriteFile(path, checkpointOf(t, append(append([]string{}, base...), "-topology", topo)), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := machine.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	uniform, ring := cks[0], cks[1]
	if uniform.Topology != "" || ring.Topology != "ring" {
		t.Fatalf("topologies %q and %q, want \"\" and \"ring\"", uniform.Topology, ring.Topology)
	}
	ring.Topology = ""
	if !reflect.DeepEqual(uniform, ring) {
		t.Fatal("the default policy's ring checkpoint differs from the uniform one beyond its Topology")
	}
}

// TestPolicyCheckpointRoundTrip: a non-default scenario checkpoints its
// policy state and resumes to the exact same result. The periodic
// checkpoint left behind by a completed run captures the machines
// mid-stream, so resuming it replays only the tail — any lost or
// mis-restored hysteresis state would change the final counters.
func TestPolicyCheckpointRoundTrip(t *testing.T) {
	base := []string{"-workload", "mst", "-instr", "200000", "-cores", "4", "-json"}
	args := append(append([]string{}, base...), "-policy", "numa", "-topology", "cluster")
	full, _ := runCLI(t, "emsim", args...)
	if !bytes.Contains([]byte(full), []byte(`"policy": "numa"`)) ||
		!bytes.Contains([]byte(full), []byte(`"topology": "cluster"`)) {
		t.Fatalf("non-default scenario missing from JSON:\n%s", full)
	}

	ck := filepath.Join(t.TempDir(), "numa.ckpt")
	ckOut, _ := runCLI(t, "emsim", append(args, "-checkpoint", ck, "-checkpoint-every", "100000")...)
	if ckOut != full {
		t.Fatalf("checkpointing run diverged from plain run:\n--- ckpt ---\n%s\n--- plain ---\n%s", ckOut, full)
	}
	resumed, _ := runCLI(t, "emsim", "-resume", ck, "-json")
	if resumed != full {
		t.Fatalf("resumed numa run diverged from uninterrupted run:\n--- resumed ---\n%s\n--- full ---\n%s", resumed, full)
	}

	// The default-config checkpoint and the numa checkpoint differ (the
	// scenario names and the policy state).
	defCk := checkpointOf(t, append(append([]string{}, base...), "-checkpoint-every", "100000"))
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, defCk) {
		t.Fatal("numa checkpoint is byte-identical to the default checkpoint: scenario missing")
	}
}

// TestTournamentGolden locks the tables -tournament league-table format
// and its serial-vs-parallel byte identity.
func TestTournamentGolden(t *testing.T) {
	args := []string{"-tournament", "-instr", "500000", "-only", "mst,181.mcf",
		"-policies", "michaud,numa,never", "-topology", "cluster"}
	serial, _ := runCLI(t, "tables", append(args, "-j", "1")...)
	checkGolden(t, "tables_tournament.golden", []byte(serial))
	parallel, _ := runCLI(t, "tables", append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("tables -tournament diverged between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestTable1Fig45Golden locks the two §4.1 experiments that filter the
// stream through 16 KB fully-associative LRU L1s: Table 1's miss counts
// and Figures 4/5's stack profiles, both as ASCII panels (whose ref
// counts are the exact L1 miss totals) and as CSV. The profile CSV must
// also be byte-identical between -j 1 and -j 2.
func TestTable1Fig45Golden(t *testing.T) {
	args := []string{"-instr", "2000000", "-only", "179.art,181.mcf,em3d,164.gzip"}
	table1, _ := runCLI(t, "tables", append([]string{"-table1", "-j", "1"}, args...)...)
	checkGolden(t, "tables_table1.golden", []byte(table1))
	panels, _ := runCLI(t, "lruprofile", append([]string{"-j", "1"}, args...)...)
	checkGolden(t, "lruprofile.golden", []byte(panels))
	csv, _ := runCLI(t, "lruprofile", append([]string{"-csv", "-j", "1"}, args...)...)
	checkGolden(t, "lruprofile_csv.golden", []byte(csv))
	parallel, _ := runCLI(t, "lruprofile", append([]string{"-csv", "-j", "2"}, args...)...)
	if parallel != csv {
		t.Fatalf("lruprofile -csv diverged between -j 1 and -j 2:\n--- serial ---\n%s\n--- parallel ---\n%s", csv, parallel)
	}
}

// TestMultiprogramGolden locks the emsim -programs output (table and
// JSON) and its worker-count byte identity, and checks the flag's two
// spellings (count vs explicit list) agree.
func TestMultiprogramGolden(t *testing.T) {
	args := []string{"-programs", "mst,181.mcf", "-instr", "100000", "-cores", "4"}
	table, _ := runCLI(t, "emsim", append(args, "-j", "1")...)
	checkGolden(t, "emsim_multiprogram.golden", []byte(table))
	jsonOut, _ := runCLI(t, "emsim", append(args, "-json", "-j", "1")...)
	checkGolden(t, "emsim_multiprogram_json.golden", []byte(jsonOut))
	for _, j := range []string{"2", "0"} {
		again, _ := runCLI(t, "emsim", append(args, "-json", "-j", j)...)
		if again != jsonOut {
			t.Fatalf("emsim -programs diverged between -j 1 and -j %s", j)
		}
	}

	count, _ := runCLI(t, "emsim", "-programs", "2", "-workload", "mst",
		"-instr", "100000", "-cores", "4", "-json")
	list, _ := runCLI(t, "emsim", "-programs", "mst,mst",
		"-instr", "100000", "-cores", "4", "-json")
	if count != list {
		t.Fatalf("-programs 2 and -programs mst,mst diverged:\n%s\nvs\n%s", count, list)
	}
}
