package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// opTimeout bounds any single child process or request, so a hung
// program fails the op instead of the whole benchmark.
const opTimeout = 120 * time.Second

// proc is one finished child process.
type proc struct {
	stdout []byte
	wall   time.Duration
	rssMB  float64
}

// maxRSSMB reads a finished child's peak resident set from rusage
// (Linux reports ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// run executes bin with args in dir and times it from start to exit.
func run(dir, bin string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: out.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		p.rssMB = maxRSSMB(cmd.ProcessState)
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return p, nil
}

// daemon is a running emsimd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stderr is fully read
}

// startDaemon launches emsimd on a free loopback port and waits for its
// listening banner.
func startDaemon(dir, bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		const banner = "emsimd: listening on http://"
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, banner) {
				addrc <- strings.TrimSuffix(strings.TrimPrefix(line, banner), "/")
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining only
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("emsimd printed no listening banner within 30s")
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit, and
// returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		rss := maxRSSMB(d.cmd.ProcessState)
		if err != nil {
			return rss, fmt.Errorf("emsimd exit: %w", err)
		}
		return rss, nil
	case <-time.After(60 * time.Second):
		d.kill()
		<-done
		return 0, fmt.Errorf("emsimd did not drain within 60s")
	}
}

// kill ends the daemon without draining and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
	<-d.drained
	d.cmd.Wait() //nolint:errcheck // the kill is the error
}

// newClient returns a keep-alive client holding one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// postRun sends one /run request and returns the reply body and whether
// the service answered from a cache layer.
func postRun(c *http.Client, addr string, spec reqSpec) (body []byte, hit bool, err error) {
	resp, err := c.Post("http://"+addr+"/run", "application/json", strings.NewReader(spec.id()))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("/run %s: HTTP %d: %s", spec.id(), resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, resp.Header.Get("Emsim-Cache") == "hit", nil
}

// copyDir copies the regular files of src (not subdirectories) into a
// new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
