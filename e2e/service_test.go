// Service end-to-end tests: a real emsimd process driven by the emsimc
// client, pinned against the serial emsim CLI. These are the acceptance
// checks of the service layer: concurrent /run results byte-identical
// to `emsim -json`, a repeat request visibly served from the cache, and
// SIGTERM draining to exit 0 with in-flight work finished or
// checkpointed.
package e2e

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// runCLIExit is runCLI for invocations that may legitimately fail: it
// returns the exit code instead of failing the test on one.
func runCLIExit(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCLIExitEnv(t, nil, bin, args...)
}

// runCLIExitEnv is runCLIExit in the environment env (nil inherits the
// test's).
func runCLIExitEnv(t *testing.T, env []string, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Env = env
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %s: %v", bin, strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return code, out.String(), errb.String()
}

// daemon is one live emsimd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	mu     sync.Mutex
}

// startDaemon launches emsimd on a free port and waits for its
// listening banner.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	d := &daemon{stderr: &bytes.Buffer{}}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	d.cmd = exec.Command(filepath.Join(binDir, "emsimd"), args...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			fmt.Fprintln(d.stderr, line)
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "emsimd: listening on http://"); ok {
				select {
				case banner <- strings.TrimSuffix(a, "/"):
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-banner:
	case <-time.After(30 * time.Second):
		t.Fatalf("emsimd never printed its listening banner:\n%s", d.stderrText())
	}
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// terminate sends SIGTERM and waits for the process to exit, returning
// its exit code.
func (d *daemon) terminate(t *testing.T) int {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("emsimd did not exit after SIGTERM:\n%s", d.stderrText())
		return -1
	}
}

// TestServiceMatchesSerialCLI is the tentpole acceptance check: a /run
// served concurrently by the daemon is byte-identical to the serial
// `emsim -json` CLI, the repeat request is a visible cache hit (header,
// client stderr, and /metrics counter), and SIGTERM drains the idle
// daemon to exit 0.
func TestServiceMatchesSerialCLI(t *testing.T) {
	d := startDaemon(t)

	serial, _ := runCLI(t, "emsim", "-json", "-workload", "mst", "-instr", "200000", "-cores", "4")

	runArgs := []string{"-addr", d.addr, "run", "-workload", "mst", "-instr", "200000", "-cores", "4"}
	cold, coldErr := runCLI(t, "emsimc", runArgs...)
	if cold != serial {
		t.Fatalf("service result diverged from serial CLI:\n--- service ---\n%s\n--- emsim -json ---\n%s", cold, serial)
	}
	if !strings.Contains(coldErr, "cache miss") {
		t.Fatalf("cold run stderr: %q", coldErr)
	}

	warm, warmErr := runCLI(t, "emsimc", runArgs...)
	if warm != cold {
		t.Fatal("cached rerun bytes diverged from the cold run")
	}
	if !strings.Contains(warmErr, "cache hit") {
		t.Fatalf("warm run stderr: %q", warmErr)
	}

	metrics, _ := runCLI(t, "emsimc", "-addr", d.addr, "metrics")
	if !strings.Contains(metrics, `"service_cache_hits": 1`) {
		t.Fatalf("cache hit not visible in /metrics:\n%s", metrics)
	}

	health, _ := runCLI(t, "emsimc", "-addr", d.addr, "health")
	if !strings.Contains(health, `"ok"`) {
		t.Fatalf("healthz: %s", health)
	}

	if code := d.terminate(t); code != 0 {
		t.Fatalf("drained daemon exited %d:\n%s", code, d.stderrText())
	}
	if !strings.Contains(d.stderrText(), "drained, exiting") {
		t.Fatalf("no drain message:\n%s", d.stderrText())
	}
}

// TestServiceDrainCheckpointsInFlight: SIGTERM with a job in flight and
// a short -drain-timeout still exits 0, and the cancelled job leaves a
// resumable EMCKPT2 checkpoint in the spool directory.
func TestServiceDrainCheckpointsInFlight(t *testing.T) {
	spool := t.TempDir()
	d := startDaemon(t, "-spool", spool, "-drain-timeout", "200ms", "-workers", "1")

	clientDone := make(chan int, 1)
	go func() {
		code, _, _ := runCLIExit(t, "emsimc", "-addr", d.addr, "run",
			"-workload", "181.mcf", "-instr", "2000000000")
		clientDone <- code
	}()
	// Wait until the long job is actually in flight before signalling.
	deadline := time.Now().Add(30 * time.Second)
	for {
		metrics, _ := runCLI(t, "emsimc", "-addr", d.addr, "metrics")
		if strings.Contains(metrics, `"service_inflight": 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never went in flight:\n%s", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if code := d.terminate(t); code != 0 {
		t.Fatalf("draining daemon exited %d:\n%s", code, d.stderrText())
	}
	if code := <-clientDone; code == 0 {
		t.Fatal("client of a drain-cancelled job exited 0")
	}

	ckpts, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("spool contents %v (err %v), want one checkpoint", ckpts, err)
	}
	f, err := os.Open(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, 8)
	if _, err := io.ReadFull(f, magic); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if string(magic) != "EMCKPT2\n" {
		t.Fatalf("spooled checkpoint magic %q, want EMCKPT2", magic)
	}
}

// TestEmsimSIGTERMCheckpoint: the serial CLI's shared graceful-stop
// path — SIGTERM mid-run exits 130 and leaves a checkpoint that
// `emsim -resume` completes.
func TestEmsimSIGTERMCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "term.ckpt")
	cmd := exec.Command(filepath.Join(binDir, "emsim"),
		"-workload", "181.mcf", "-instr", "3000000", "-cores", "4", "-checkpoint", ckpt, "-j", "1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Skip("run completed before SIGTERM arrived")
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("SIGTERM exit: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "INTERRUPTED") {
		t.Fatalf("no partial report after SIGTERM:\n%s", out.String())
	}

	resumed, _ := runCLI(t, "emsim", "-resume", ckpt)
	if !strings.Contains(resumed, "resumed from "+ckpt) {
		t.Fatalf("resume did not acknowledge the checkpoint:\n%s", resumed)
	}
}

// TestEmsimProfileWriteFailure: an uncreatable profile destination must
// surface as a nonzero exit, not a silently missing file.
func TestEmsimProfileWriteFailure(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		code, _, stderr := runCLIExit(t, "emsim",
			"-workload", "mst", "-instr", "100000", flag, t.TempDir())
		if code == 0 {
			t.Errorf("%s pointed at a directory exited 0", flag)
		}
		if stderr == "" {
			t.Errorf("%s failure produced no diagnostic", flag)
		}
	}
}
