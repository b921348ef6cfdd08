package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/report"
)

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// env is one benchmark process's view of the checkout.
type env struct {
	root string // checkout root
	work string // private scratch directory under .bench_build
	g    *golden
	// recording makes every digest check record instead (regen).
	recording bool
	mu        sync.Mutex // guards the golden tables while recording
}

func (e *env) check(table map[string]string, key string, b []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return check(table, key, b, e.recording)
}

// prepared is what set-up leaves for the measured ops.
type prepared struct {
	dir           string // holds bin/, mcf.trace and seedstore/
	emsim, emsimd string
	// truth is the full-fidelity result of each sampled input.
	truth map[string]report.RunResultJSON
}

// setup builds the binaries from the checkout and prepares what the
// workload needs: the recorded trace and full-fidelity truth for
// `sampled`, the seeded store for `service`.
func (e *env) setup(workload, dir string) (*prepared, error) {
	p := &prepared{dir: dir, emsim: filepath.Join(dir, "bin", "emsim"), emsimd: filepath.Join(dir, "bin", "emsimd")}
	if err := os.MkdirAll(filepath.Join(dir, "bin"), 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "bin")+string(os.PathSeparator), "./cmd/emsim", "./cmd/emsimd")
	build.Dir = e.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building emsim and emsimd: %w\n%s", err, out)
	}
	switch workload {
	case "sampled":
		return p, e.setupSampled(p)
	case "service":
		return p, e.setupService(p)
	}
	return p, nil
}

// setupSampled records the mcf trace and runs both sampled inputs at
// full fidelity, concurrently (two simulation threads).
func (e *env) setupSampled(p *prepared) error {
	if _, err := run(p.dir, p.emsim, "-record", traceFile, "-workload", "181.mcf", "-instr", strconv.Itoa(sampleMcfInstr)); err != nil {
		return err
	}
	b, err := os.ReadFile(filepath.Join(p.dir, traceFile))
	if err != nil {
		return err
	}
	if err := e.check(e.g.Truth, traceFile, b); err != nil {
		return err
	}
	inputs := map[string][]string{
		"em3d": {"-json", "-j", "1", "-workload", "em3d", "-instr", strconv.Itoa(sampleEm3dInstr)},
		"mcf":  {"-json", "-j", "1", "-replay", traceFile},
	}
	p.truth = map[string]report.RunResultJSON{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for name, args := range inputs {
		wg.Add(1)
		go func(name string, args []string) {
			defer wg.Done()
			pr, err := run(p.dir, p.emsim, args...)
			var res report.RunResultJSON
			if err == nil {
				err = json.Unmarshal(pr.stdout, &res)
			}
			if err == nil {
				err = e.check(e.g.Truth, name, pr.stdout)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("truth for %s: %w", name, err)
				}
				return
			}
			p.truth[name] = res
		}(name, args)
	}
	wg.Wait()
	return firstErr
}

// setupService seeds a store with every hot spec through the daemon
// under test.
func (e *env) setupService(p *prepared) error {
	d, err := startDaemon(p.dir, p.emsimd, daemonArgs("seedstore")...)
	if err != nil {
		return err
	}
	err = e.postAll(d.addr, hotSpecs())
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return fmt.Errorf("seeding the store: %w", err)
	}
	return nil
}

// postAll sends every spec once, split over the clients, and checks each
// reply against its digest.
func (e *env) postAll(addr string, specs []reqSpec) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			for i := c; i < len(specs) && errs[c] == nil; i += clients {
				var body []byte
				if body, _, errs[c] = postRun(cl, addr, specs[i]); errs[c] == nil {
					errs[c] = e.check(e.g.Service, specs[i].id(), body)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupRepeated sets up setupRounds times in fresh directories and
// returns the median wall time with the last preparation.
func (e *env) setupRepeated(workload string) (*prepared, float64, error) {
	var times []float64
	var p *prepared
	for i := 0; i < setupRounds; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		q, err := e.setup(workload, dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if p != nil {
			os.RemoveAll(p.dir) //nolint:errcheck // scratch; the whole work dir goes at exit
		}
		p = q
	}
	return p, median(times), nil
}
