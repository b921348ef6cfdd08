// Command benchreport measures the simulator's hot-path cost and the
// experiment engine's parallel speedup, and writes the results as a
// machine-readable JSON document (BENCH_simulator.json via `make
// bench`). Three measurements:
//
//   - ns/ref of Machine.AccessBatch on warm machines, per configuration
//     (the same steady-state mix the allocation-regression test drives),
//     of the run.Pair that drives the experiment's two machines through
//     one L1 front end, and of the sampling profiler
//   - allocs/op of the same loop (must be 0 — the CI gate)
//   - wall-clock of the working-set sweep serially vs through the worker
//     pool, and the resulting speedup
//
// Speedup is only meaningful relative to the recorded "cpus" field: on
// a single-core host the parallel path cannot beat the serial one and
// the ratio documents scheduling overhead instead.
//
// Every run can be appended to a JSONL history file (-history), and
// -gate turns the run into a CI perf ratchet: it fails (exit 1) when
// any configuration's ns/ref regresses more than gateTolerance versus
// the best comparable recorded run — comparable meaning same CPU count,
// GOMAXPROCS and batch length, the knobs that move ns/ref between
// hosts — or when the hot path allocates.
//
// Usage:
//
//	benchreport                    # print JSON to stdout
//	benchreport -o BENCH_simulator.json
//	benchreport -refs 2000000 -laps 20 -j 4
//	benchreport -o BENCH_simulator.json -history BENCH_history.jsonl -gate
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/ioutilx"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/run"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// Report is the top-level JSON document.
type Report struct {
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS pins the scheduler width the numbers were measured
	// under; ns/ref comparisons across runs are only meaningful when it
	// matches.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the pool size the parallel sweep ran with (resolved
	// from -j; 0 on the command line means all CPUs).
	Workers int `json:"workers"`
	// BatchLen is the columnar batch capacity the hot path was measured
	// with (mem.DefaultBatchLen); it participates in history
	// comparability the same way GOMAXPROCS does.
	BatchLen int `json:"batch_len"`
	// CalibNsPerOp is the measured cost of the fixed calibration kernel
	// on this host at the time of the run. The perf gate compares
	// calibration-normalized ns/ref (NsPerRef / CalibNsPerOp) across
	// runs, so host clock-speed drift — shared runners, frequency
	// scaling, different hardware generations behind one CI label —
	// cancels out and only genuine code regressions trip the ratchet.
	CalibNsPerOp float64 `json:"calib_ns_per_op"`

	// HotPath has one entry per machine configuration.
	HotPath []HotPathResult `json:"hot_path"`

	// Sweep compares the serial and parallel experiment engine on the
	// same working-set sweep.
	Sweep SweepResult `json:"sweep"`
}

// HotPathResult is the steady-state per-reference cost of one machine
// configuration.
type HotPathResult struct {
	Config      string  `json:"config"`
	Refs        uint64  `json:"refs"`
	NsPerRef    float64 `json:"ns_per_ref"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SweepResult records the serial-vs-parallel wall clock of the sweep.
type SweepResult struct {
	Points     int     `json:"points"`
	Laps       uint64  `json:"laps"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	// Speedup is null on a single-CPU host: a serial/parallel ratio
	// there measures scheduling overhead, and publishing it as a
	// "speedup" would invite dashboards to chart a meaningless number.
	// SpeedupNote says why the field is null.
	Speedup     *float64 `json:"speedup"`
	SpeedupNote string   `json:"speedup_note,omitempty"`
}

// speedupFor renders the serial/parallel ratio, or explains why not.
func speedupFor(cpus int, serial, parallel time.Duration) (*float64, string) {
	if cpus == 1 {
		return nil, "single-CPU host: parallel cannot beat serial; ratio would measure scheduling overhead"
	}
	s := float64(serial) / float64(parallel)
	return &s, ""
}

func main() {
	var (
		out     = flag.String("o", "", "write the JSON report to this file (default: stdout)")
		refs    = flag.Uint64("refs", 2_000_000, "references per hot-path timing loop")
		laps    = flag.Uint64("laps", 20, "laps per sweep point")
		jobs    = flag.Int("j", 0, "worker pool for the parallel sweep: 0 = all cores")
		history = flag.String("history", "", "append this run to a JSONL history file")
		gate    = flag.Bool("gate", false, "fail on a ns/ref regression beyond tolerance vs the best comparable run in -history")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *gate && *history == "" {
		fail(errors.New("benchreport: -gate needs -history"))
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	rep := Report{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		BatchLen:   mem.DefaultBatchLen,
	}

	rep.CalibNsPerOp = measureCalibration()
	fmt.Fprintf(os.Stderr, "benchreport: calibration %.3f ns/op\n", rep.CalibNsPerOp)

	for _, cfg := range hotPathConfigs() {
		fmt.Fprintf(os.Stderr, "benchreport: hot path %-14s %d refs...\n", cfg.name, *refs)
		rep.HotPath = append(rep.HotPath, measureHotPath(cfg, *refs))
	}
	fmt.Fprintf(os.Stderr, "benchreport: hot path %-14s %d refs...\n", pairConfig, *refs)
	rep.HotPath = append(rep.HotPath, measurePair(*refs))
	fmt.Fprintf(os.Stderr, "benchreport: hot path %-14s %d refs...\n", samplingProfileConfig, *refs)
	rep.HotPath = append(rep.HotPath, measureSamplingProfile(*refs))

	sizes := report.DefaultSweepSizes()
	fmt.Fprintf(os.Stderr, "benchreport: sweep %d points x %d laps, serial...\n", len(sizes), *laps)
	serialPts, serialDur, err := timeSweep(sizes, *laps, 1)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "benchreport: sweep parallel, %d workers...\n", workers)
	parallelPts, parallelDur, err := timeSweep(sizes, *laps, workers)
	if err != nil {
		fail(err)
	}
	// The benchmark doubles as the determinism guard: refuse to report a
	// speedup for output that diverged.
	for i := range serialPts {
		if serialPts[i] != parallelPts[i] {
			fail(fmt.Errorf("benchreport: sweep point %d diverged between serial and parallel", i))
		}
	}
	speedup, note := speedupFor(rep.CPUs, serialDur, parallelDur)
	rep.Sweep = SweepResult{
		Points:      len(sizes),
		Laps:        *laps,
		SerialMs:    float64(serialDur.Microseconds()) / 1e3,
		ParallelMs:  float64(parallelDur.Microseconds()) / 1e3,
		Speedup:     speedup,
		SpeedupNote: note,
	}

	var gateErr error
	if *gate {
		gateErr = checkGate(*history, rep)
	}
	if *history != "" {
		if err := appendHistory(*history, rep); err != nil {
			fail(err)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s\n", *out)
	}
	if gateErr != nil {
		fail(gateErr)
	}
}

// gateTolerance is the fractional ns/ref regression the gate lets pass:
// run-to-run noise on shared CI runners sits well under this, a real
// regression does not.
const gateTolerance = 0.05

// historyEntry is one JSONL line of the history file.
type historyEntry struct {
	Time string `json:"time"`
	Report
}

// appendHistory appends the run (with a timestamp) to the JSONL file.
// The Close error is part of the append — a full disk often surfaces
// only there — so it rides the named return via CloseKeeping.
func appendHistory(path string, rep Report) (err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer ioutilx.CloseKeeping(&err, f)
	line, err := json.Marshal(historyEntry{
		Time:   time.Now().UTC().Format(time.RFC3339),
		Report: rep,
	})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = f.Write(line)
	return err
}

// comparableEntry reports whether a recorded run's numbers are commensurable
// with the current one: same CPU count, same GOMAXPROCS, same batch
// length, and carrying a calibration measurement to normalize by.
// (Go version intentionally excluded: a toolchain upgrade that
// slows the simulator down is exactly what the ratchet should catch.)
func comparableEntry(e historyEntry, rep Report) bool {
	return e.CPUs == rep.CPUs && e.GOMAXPROCS == rep.GOMAXPROCS &&
		e.BatchLen == rep.BatchLen && e.CalibNsPerOp > 0
}

// bestRecorded returns the lowest recorded calibration-normalized
// ns/ref per config among comparable history entries.
func bestRecorded(path string, rep Report) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // first run: nothing to ratchet against
		}
		return nil, err
	}
	defer f.Close()
	best := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e historyEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("benchreport: corrupt history line: %w", err)
		}
		if !comparableEntry(e, rep) {
			continue
		}
		for _, h := range e.HotPath {
			norm := h.NsPerRef / e.CalibNsPerOp
			if b, ok := best[h.Config]; !ok || norm < b {
				best[h.Config] = norm
			}
		}
	}
	return best, sc.Err()
}

// checkGate compares the run against the recorded best and returns an
// error describing every regression (calibration-normalized ns/ref
// beyond tolerance, or any hot-path allocation). The normalized value
// is the per-reference cost in calibration-kernel ops — dimensionless,
// so it holds across host clock-speed drift.
func checkGate(path string, rep Report) error {
	best, err := bestRecorded(path, rep)
	if err != nil {
		return err
	}
	var problems []string
	for _, h := range rep.HotPath {
		if h.AllocsPerOp != 0 {
			problems = append(problems, fmt.Sprintf("%s: %.2f allocs/op (must be 0)", h.Config, h.AllocsPerOp))
		}
		norm := h.NsPerRef / rep.CalibNsPerOp
		b, ok := best[h.Config]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchreport: gate: %s: no comparable history, recording baseline %.2f ns/ref (%.1f calib ops)\n",
				h.Config, h.NsPerRef, norm)
			continue
		}
		limit := b * (1 + gateTolerance)
		if norm > limit {
			problems = append(problems, fmt.Sprintf("%s: %.2f ns/ref = %.1f calib ops vs best %.1f (+%.1f%%, tolerance %.0f%%)",
				h.Config, h.NsPerRef, norm, b, 100*(norm/b-1), 100*gateTolerance))
		} else {
			fmt.Fprintf(os.Stderr, "benchreport: gate: %s: %.2f ns/ref = %.1f calib ops vs best %.1f ok\n",
				h.Config, h.NsPerRef, norm, b)
		}
	}
	if len(problems) != 0 {
		msg := "benchreport: perf gate failed:"
		for _, p := range problems {
			msg += "\n  " + p
		}
		return errors.New(msg)
	}
	return nil
}

type hotPathConfig struct {
	name string
	cfg  machine.Config
}

// hotPathConfigs mirrors the regimes of the allocation-regression test:
// baseline, Table 2 affinity cache, and the capped unbounded table.
func hotPathConfigs() []hotPathConfig {
	unboundedCfg := machine.MigrationConfigN(4)
	mc := migration.MustConfigForCores(4)
	mc.TableEntries = 0
	unboundedCfg.Migration = &mc
	return []hotPathConfig{
		{"normal", machine.NormalConfig()},
		{"migration", machine.MigrationConfig()},
		{"migration-utab", unboundedCfg},
	}
}

// hotPathReps is how many timed repetitions measureSink takes per
// config, reporting the fastest. Scheduling interference only ever
// slows a run down, so the minimum is the stable estimate of the true
// cost — single-shot timings on a shared host vary by more than the
// gate tolerance and would make the perf ratchet flaky. Five reps keep
// every run near the floor, so the recorded best and a gated run land
// in the same band.
const hotPathReps = 5

// measureHotPath times the steady-state reference mix on a warm
// standalone machine.
func measureHotPath(c hotPathConfig, refs uint64) HotPathResult {
	return measureSink(c.name, machine.MustNew(c.cfg), refs)
}

// pairConfig names the hot-path entry of the experiment's two machines
// as one run.Pair: the 1-core baseline and the Table 2 migration chip
// behind one shared L1 front end, the sink every serial emsim run,
// /run request and sampled chain drives.
const pairConfig = "pair"

// measurePair times the steady-state mix through a warm run.Pair.
func measurePair(refs uint64) HotPathResult {
	p, err := run.NewPairConfig(machine.NormalConfig(), machine.MigrationConfig())
	if err != nil {
		//emlint:allowpanic compile-time-constant configuration; an error is an internal invariant violation
		panic(err)
	}
	return measureSink(pairConfig, p.Sink(), refs)
}

// samplingProfileConfig names the sampling profiling-pass entry in the
// hot-path table. It rides the same ns/ref ratchet and allocs==0 gate as
// the machine configurations — the profiling pass is the part of
// `emsim -sample` that touches every reference, so its overhead bounds
// how cheap a sampled run can get. On the warm stack every reference is
// a hit: one line-index probe, then list links and markers move, and
// neither the index nor the node arena grows. The warm stack holds 24K
// lines, so its index stays cache-resident; BenchmarkStackRef in
// internal/lrustack is the benchmark where the index outgrows the caches.
const samplingProfileConfig = "sampling-profile"

// measureSamplingProfile times the interval profiler on the same
// steady-state mix as the machine hot paths, on a warm stack.
func measureSamplingProfile(refs uint64) HotPathResult {
	prof, err := sampling.NewProfiler(20_000, 6)
	if err != nil {
		//emlint:allowpanic compile-time-constant configuration; an error is an internal invariant violation
		panic(err)
	}
	return measureSink(samplingProfileConfig, prof, refs)
}

// measureSink warms sink up, then times the steady-state reference mix
// through it and measures its allocs/op the same way the regression
// test does. The mix is delivered through the production columnar
// batch path (mem.Batcher into the sink's AccessBatch, BatchLen records
// per batch).
func measureSink(name string, sink mem.BatchSink, refs uint64) HotPathResult {
	trace.DriveBatched(trace.NewCircular(24<<10), sink, 100_000, 6, 3)

	g := trace.NewCircular(24 << 10)
	ba := mem.NewBatcher(sink, 0)
	var i uint64
	allocs := testing.AllocsPerRun(5000, func() {
		steadyRef(ba, g, i)
		i++
	})
	ba.Flush()

	var best time.Duration
	for rep := 0; rep < hotPathReps; rep++ {
		g = trace.NewCircular(24 << 10)
		start := time.Now()
		for i := uint64(0); i < refs; i++ {
			steadyRef(ba, g, i)
		}
		ba.Flush()
		if elapsed := time.Since(start); rep == 0 || elapsed < best {
			best = elapsed
		}
	}

	return HotPathResult{
		Config:      name,
		Refs:        refs,
		NsPerRef:    float64(best.Nanoseconds()) / float64(refs),
		AllocsPerOp: allocs,
	}
}

// calibOps is the iteration count of the calibration kernel: long
// enough (~20 ms) that timer resolution and loop startup vanish, short
// enough that five reps cost well under a second.
const calibOps = 1 << 23

// calibSink keeps the calibration kernel's result live so the loop is
// not dead-code-eliminated.
var calibSink uint64

// measureCalibration times a fixed integer kernel (the splitmix64
// finalizer) and returns its ns/op, the minimum over hotPathReps runs.
// The kernel has no memory traffic and a serial dependency chain, so
// its cost tracks the host core's effective speed and nothing else —
// the denominator the perf gate normalizes ns/ref by.
func measureCalibration() float64 {
	var best time.Duration
	for rep := 0; rep < hotPathReps; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < calibOps; i++ {
			x += 0x9e3779b97f4a7c15
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			x ^= x >> 31
		}
		if elapsed := time.Since(start); rep == 0 || elapsed < best {
			best = elapsed
		}
		calibSink += x
	}
	return float64(best.Nanoseconds()) / float64(calibOps)
}

// steadyRef is the deterministic load/store/ifetch mix shared with the
// machine package's steady-state benchmark.
func steadyRef(sink mem.Sink, g *trace.Circular, i uint64) {
	line := mem.Line(g.Next())
	switch i % 8 {
	case 0:
		sink.Access(mem.AddrOf(line, 6), mem.IFetch)
	case 1:
		sink.Access(mem.AddrOf(line, 6), mem.Store)
	default:
		sink.Access(mem.AddrOf(line, 6), mem.Load)
	}
	sink.Instr(3)
}

// timeSweep runs the working-set sweep with the given worker count and
// returns its points and wall-clock duration.
func timeSweep(sizes []uint64, laps uint64, workers int) ([]report.SweepPoint, time.Duration, error) {
	start := time.Now()
	pts, err := report.SweepWorkingSetOpt(sizes, laps, 4, report.RunOptions{Workers: workers})
	return pts, time.Since(start), err
}
