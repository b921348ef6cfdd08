// Command perfbench is the repository's benchmark: end-to-end runs of
// the emsim and emsimd binaries built from the checkout, and a traced
// in-process pass that attributes host time to each layer. See
// README.md for the workloads, the metrics and how to read them.
//
// Usage (from the repository root, through bench.sh):
//
//	bash perfbench/bench.sh --workload full --seed 1 --seconds 20 --trace 0
//	bash perfbench/bench.sh --workload sampled --seed 1 --seconds 20 --trace 1
//	bash perfbench/bench.sh steady --runs 10 --seconds 20 --workload all
//	bash perfbench/bench.sh regen
//
// A run prints one line per metric, then, as its last line, the result
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workloadNames are the benchmark's workloads, in the order `all` runs
// them.
var workloadNames = []string{"full", "sampled", "service"}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to build and measure")
	workload := fs.String("workload", "all", "workload: full, sampled, service, or all (the three in turn)")
	seed := fs.Uint64("seed", 1, "workload seed: op order, sample seeds and the service mix")
	seconds := fs.Float64("seconds", 20, "measure for at least this long, in whole rounds")
	trace := fs.Int("trace", 0, "1 = run the traced in-process pass and report per-layer metrics")
	runs := fs.Int("runs", 10, "steady: runs per workload (seeds 1..runs)")
	args := os.Args[1:]
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	mode := "run"
	if fs.NArg() > 0 {
		mode = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			os.Exit(2)
		}
	}
	e, err := newEnv(*root, mode == "regen")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(e.work)
	ws := []string{*workload}
	if *workload == "all" {
		ws = workloadNames
	}
	switch mode {
	case "run":
		for _, w := range ws {
			if err = e.runOnce(w, *seed, *seconds, *trace == 1); err != nil {
				break
			}
		}
	case "steady":
		err = e.steady(ws, *runs, *seconds)
	case "regen":
		err = e.regen()
	default:
		err = fmt.Errorf("unknown mode %q (run, steady or regen)", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(e.work)
		os.Exit(1)
	}
}

// newEnv checks that root is a checkout of the simulator and makes the
// run's scratch directory inside it. regen skips loading the digests it
// is about to replace.
func newEnv(root string, regen bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/emsim", "cmd/emsimd"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not a checkout of the simulator: %w", root, err)
		}
	}
	var g *golden
	if !regen {
		if g, err = loadGolden(root); err != nil {
			return nil, err
		}
	}
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &env{root: root, work: work, g: g}, nil
}

// runOnce is one driver run: the end-to-end pass, or with traced the
// per-layer pass.
func (e *env) runOnce(workload string, seed uint64, seconds float64, traced bool) error {
	var o *outcome
	var err error
	names := e2eMetrics
	if traced {
		o, err = e.runTraced(workload, seed, seconds)
		names = perLayerNames()
	} else {
		o, err = e.runE2E(workload, seed, seconds)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d, trace %v\n", workload, seed, traced)
	for _, m := range o.metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Printf("  %-38s %14.6g %-9s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, s := range o.errs {
		fmt.Println("  FAILED:", s)
	}
	return printResult(o, names)
}

// printResult writes the result object, with exactly the named metrics.
func printResult(o *outcome, names []string) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range o.metrics {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	out := map[string]val{}
	for _, n := range names {
		v, ok := ms[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// steady runs each workload runs times with seeds 1..runs and prints
// every end-to-end metric's median, quartiles and spread, the figures
// BENCHMARK.json's bounds are set from.
func (e *env) steady(workloads []string, runs int, seconds float64) error {
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for i := 1; i <= runs; i++ {
			o, err := e.runE2E(w, uint64(i), seconds)
			if err != nil {
				return err
			}
			if o.failed > 0 {
				return fmt.Errorf("%s seed %d: %d ops failed: %v", w, i, o.failed, o.errs)
			}
			for _, m := range o.metrics {
				if _, seen := vals[m.Name]; !seen {
					order = append(order, m.Name)
				}
				vals[m.Name] = append(vals[m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
		fmt.Printf("workload %s, %d runs of %gs\n", w, runs, seconds)
		fmt.Printf("  %-22s %-9s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
		for _, n := range order {
			q1, q3 := quartiles(vals[n])
			med := median(vals[n])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-22s %-9s %12.6g %12.6g %12.6g %7.1f%%\n", n, units[n], q1, med, q3, 100*spread)
		}
	}
	return nil
}
