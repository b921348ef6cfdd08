// Package e2e runs the built command-line binaries end to end on tiny
// workloads and locks their output formats with checked-in goldens.
// Regenerate the goldens after an intentional format change with:
//
//	go test ./e2e -update
package e2e

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with current output")

// binDir holds the freshly built emsim, tables, emsimd, emsimc,
// affinityviz and lruprofile binaries for the whole test run.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "emsim-e2e-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// EMSIM_E2E_RACE=1 builds the binaries under the race detector, so
	// the crash/recovery suite exercises the daemon's real goroutine
	// interleavings (drain vs recovery vs serve) with checking on; CI's
	// race job sets it.
	args := []string{"build", "-o", dir}
	if os.Getenv("EMSIM_E2E_RACE") == "1" {
		args = append(args, "-race")
	}
	args = append(args, "repro/cmd/emsim", "repro/cmd/tables", "repro/cmd/emsimd", "repro/cmd/emsimc", "repro/cmd/affinityviz", "repro/cmd/lruprofile")
	build := exec.Command("go", args...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building CLI binaries:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes one binary with args and returns its stdout; stderr
// (progress lines, metric-server banner) is returned separately.
func runCLI(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	return runCLIEnv(t, nil, bin, args...)
}

// runCLIEnv is runCLI in the environment env (nil inherits the test's).
func runCLIEnv(t *testing.T, env []string, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Env = env
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr:\n%s", bin, strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./e2e -update` to create the goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// emsimArgs is the canonical tiny-workload invocation: small enough to
// run in well under a second, large enough for several timeline
// intervals.
func emsimArgs(extra ...string) []string {
	return append([]string{"-workload", "mst", "-instr", "200000", "-cores", "4", "-interval", "50000"}, extra...)
}

// TestEmsimReportGolden locks the emsim report format and the -timeline
// JSONL format, and requires the timeline to span at least 2 intervals
// (4 rows: both machines per interval).
func TestEmsimReportGolden(t *testing.T) {
	tl := filepath.Join(t.TempDir(), "tl.jsonl")
	stdout, _ := runCLI(t, "emsim", emsimArgs("-timeline", tl, "-j", "1")...)
	checkGolden(t, "emsim_mst.golden", []byte(stdout))

	jsonl, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.Count(jsonl, []byte("\n"))
	if rows < 4 {
		t.Fatalf("timeline has %d rows, want >= 4 (2 intervals x 2 machines):\n%s", rows, jsonl)
	}
	checkGolden(t, "emsim_mst_timeline.golden", jsonl)
}

// TestEmsimPlainRunIgnoresJobs: -j sizes only the sampled and
// multiprogrammed pools, so a plain run at -j 2 or 0 is the one pass
// the goldens recorded at -j 1: the report and the timeline file are
// byte-equal to them.
func TestEmsimPlainRunIgnoresJobs(t *testing.T) {
	for _, j := range []string{"2", "0"} {
		tl := filepath.Join(t.TempDir(), "tl.jsonl")
		stdout, _ := runCLI(t, "emsim", emsimArgs("-timeline", tl, "-j", j)...)
		checkGolden(t, "emsim_mst.golden", []byte(stdout))
		jsonl, err := os.ReadFile(tl)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "emsim_mst_timeline.golden", jsonl)
	}
}

// cpuEnvs returns the test's environment without a GOMAXPROCS setting
// (the default: every CPU) and the same with GOMAXPROCS=1.
func cpuEnvs() (inherited, oneCPU []string) {
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			inherited = append(inherited, kv)
		}
	}
	return inherited, append(append([]string(nil), inherited...), "GOMAXPROCS=1")
}

// TestSerialTeeBytesIgnoreCPUCount: emsim's serial tee reads its input
// through a producer goroutine, so the host's CPU count decides what
// overlaps. It may not decide a byte: the -j 1 JSON, the timeline and
// the last periodic checkpoint are identical under GOMAXPROCS=1 and the
// default, for a generated workload and a recorded replay.
func TestSerialTeeBytesIgnoreCPUCount(t *testing.T) {
	inherited, oneCPU := cpuEnvs()
	dir := t.TempDir()
	tr := filepath.Join(dir, "mcf.trace")
	runCLI(t, "emsim", "-record", tr, "-workload", "181.mcf", "-instr", "1000000")
	for name, input := range map[string][]string{
		"em3d":   {"-workload", "em3d", "-instr", "1000000"},
		"replay": {"-replay", tr},
	} {
		t.Run(name, func(t *testing.T) {
			outputs := func(env []string, tag string) [3]string {
				tl, ck := filepath.Join(dir, name+tag+".jsonl"), filepath.Join(dir, name+tag+".ckpt")
				args := append([]string{"-json", "-j", "1", "-cores", "4", "-interval", "100000", "-timeline", tl,
					"-checkpoint", ck, "-checkpoint-every", "150000"}, input...)
				stdout, _ := runCLIEnv(t, env, "emsim", args...)
				out := [3]string{stdout}
				for i, path := range []string{tl, ck} {
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					out[i+1] = string(b)
				}
				return out
			}
			ref, one := outputs(inherited, "default"), outputs(oneCPU, "one")
			for i, what := range []string{"JSON", "timeline", "checkpoint"} {
				if one[i] != ref[i] {
					t.Errorf("%s under GOMAXPROCS=1 diverged from the default", what)
				}
			}
		})
	}
}

// TestSerialTeeDamagedReplay: a damaged trace ends emsim's serial tee
// with exit code 1, no report, and the decoder's error naming the byte
// it stopped at, whatever the CPU count.
func TestSerialTeeDamagedReplay(t *testing.T) {
	inherited, oneCPU := cpuEnvs()
	dir := t.TempDir()
	tr := filepath.Join(dir, "mst.trace")
	runCLI(t, "emsim", "-record", tr, "-workload", "mst", "-instr", "200000")
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(b) * 2 / 3
	if err := os.WriteFile(tr, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("trace: trace truncated at byte %d: ", cut)
	for _, env := range [][]string{inherited, oneCPU} {
		code, stdout, stderr := runCLIExitEnv(t, env, "emsim", "-j", "1", "-replay", tr)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no report and one line starting %q", code, stdout, stderr, want)
		}
	}
}

// TestEmsimTimelineStdout: "-timeline -" streams the JSONL to stdout
// ahead of the report, so stdout must start with the timeline golden.
func TestEmsimTimelineStdout(t *testing.T) {
	stdout, _ := runCLI(t, "emsim", emsimArgs("-timeline", "-", "-j", "1")...)
	want, err := os.ReadFile(filepath.Join("testdata", "emsim_mst_timeline.golden"))
	if err != nil {
		t.Fatalf("%v (run `go test ./e2e -update` first)", err)
	}
	if !bytes.HasPrefix([]byte(stdout), want) {
		t.Fatalf("stdout does not start with the timeline JSONL:\n%s", stdout)
	}
}

// TestEmsimMetricsFlag: the -metrics listener comes up (the banner
// names the bound address) and the run completes normally with
// telemetry enabled.
func TestEmsimMetricsFlag(t *testing.T) {
	stdout, stderr := runCLI(t, "emsim", emsimArgs("-metrics", "127.0.0.1:0", "-j", "1")...)
	if !strings.Contains(stderr, "serving metrics on http://127.0.0.1:") {
		t.Fatalf("metrics banner missing from stderr:\n%s", stderr)
	}
	checkGolden(t, "emsim_mst.golden", []byte(stdout))
}

// TestTablesTimelineGolden locks the tables -timeline format and its
// serial-vs-parallel byte identity.
func TestTablesTimelineGolden(t *testing.T) {
	args := []string{"-timeline", "-interval", "50000", "-instr", "300000", "-only", "mst,em3d"}
	serial, _ := runCLI(t, "tables", append(args, "-j", "1")...)
	checkGolden(t, "tables_timeline.golden", []byte(serial))
	parallel, _ := runCLI(t, "tables", append(args, "-j", "2")...)
	if serial != parallel {
		t.Fatalf("tables -timeline diverged between -j 1 and -j 2:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSampleFlagsNeedSample: a -sample-* flag given without -sample is
// rejected by name, even at values equal to the defaults or zero,
// instead of running a full simulation that ignores it.
func TestSampleFlagsNeedSample(t *testing.T) {
	for _, tc := range []struct {
		bin  string
		args []string
		want string
	}{
		{"emsim", []string{"-workload", "mst", "-instr", "100000", "-sample-interval", "0", "-sample-clusters", "0", "-sample-seed", "0", "-sample-warmup", "0"},
			"emsim: -sample-clusters needs -sample"},
		{"emsim", []string{"-workload", "mst", "-instr", "100000", "-sample-verify"}, "emsim: -sample-verify needs -sample"},
		{"tables", []string{"-table2", "-instr", "100000", "-sample-interval", "5"}, "tables: -sample-interval needs -sample"},
	} {
		code, stdout, stderr := runCLIExit(t, tc.bin, tc.args...)
		if code == 0 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q, want nonzero exit and %q",
				tc.bin, strings.Join(tc.args, " "), code, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%s %s printed a report:\n%s", tc.bin, strings.Join(tc.args, " "), stdout)
		}
	}
}
