package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/sampling"
)

// metric is one named figure of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           []metric
	errs              []string
}

func (o *outcome) add(name, unit string, v float64, note string) {
	o.metrics = append(o.metrics, metric{name, unit, v, note})
}

// find returns the first figure named name.
func (o *outcome) find(name string) (metric, bool) {
	for _, m := range o.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err.Error())
	}
}

// peakRSS is the highest, over op kinds, of each kind's median max-RSS:
// one op that a late GC let grow does not set the figure.
type peakRSS map[string][]float64

func (p peakRSS) add(kind string, mb float64) {
	if mb > 0 {
		p[kind] = append(p[kind], mb)
	}
}

func (p peakRSS) value() float64 {
	peak := 0.0
	for _, v := range p {
		peak = math.Max(peak, median(v))
	}
	return peak
}

// e2eMetrics are the end-to-end metrics every workload reports in the
// result line, in BENCHMARK.json order. Each workload prints its own
// further figures (hit_p50_ms, sample_err_pct, ...) above that line.
var e2eMetrics = []string{"setup_s", "op_p50_s", "minstr_per_s", "ops_per_s", "peak_rss_mb"}

// runE2E sets up, then runs workload against the built binaries for at
// least seconds, in whole rounds.
func (e *env) runE2E(workload string, seed uint64, seconds float64) (*outcome, error) {
	p, setupS, err := e.setupRepeated(workload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := &outcome{}
	o.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", setupRounds))
	switch workload {
	case "full":
		e.runFull(p, seed, seconds, o)
	case "sampled":
		e.runSampled(p, seed, seconds, o)
	case "service":
		if err := e.runService(p, seed, seconds, o); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	o.add("failed_ratio", "ratio", float64(o.failed)/math.Max(1, float64(o.attempted)), fmt.Sprintf("%d of %d ops", o.failed, o.attempted))
	return o, nil
}

// fullOp runs one program through emsim with a timeline and checks both
// outputs against their digests.
func (e *env) fullOp(p *prepared, name string) (wall time.Duration, instr uint64, rss float64, err error) {
	pr, err := run(p.dir, p.emsim, "-json", "-j", "1", "-timeline", "timeline.jsonl",
		"-workload", name, "-instr", strconv.Itoa(fullInstr))
	if err != nil {
		return 0, 0, pr.rssMB, err
	}
	tl, err := os.ReadFile(filepath.Join(p.dir, "timeline.jsonl"))
	if err != nil {
		return 0, 0, pr.rssMB, err
	}
	if err := e.check(e.g.Full, name+"/json", pr.stdout); err != nil {
		return 0, 0, pr.rssMB, err
	}
	if err := e.check(e.g.Full, name+"/timeline", tl); err != nil {
		return 0, 0, pr.rssMB, err
	}
	var res report.RunResultJSON
	if err := json.Unmarshal(pr.stdout, &res); err != nil {
		return 0, 0, pr.rssMB, err
	}
	return pr.wall, res.Normal.Instructions, pr.rssMB, nil
}

func (e *env) runFull(p *prepared, seed uint64, seconds float64, o *outcome) {
	var walls []float64
	var instr float64
	rss := peakRSS{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		for _, name := range fullOrder(seed, pass) {
			o.attempted++
			wall, n, r, err := e.fullOp(p, name)
			rss.add(name, r)
			if err != nil {
				o.fail(err)
				continue
			}
			walls = append(walls, wall.Seconds())
			instr += float64(n)
		}
	}
	elapsed := time.Since(start).Seconds()
	o.add("op_p50_s", "s", median(walls), fmt.Sprintf("%d ops", len(walls)))
	o.add("minstr_per_s", "Minstr/s", instr/sum(walls)/1e6, "")
	o.add("ops_per_s", "1/s", float64(len(walls))/elapsed, "")
	o.add("peak_rss_mb", "MB", rss.value(), "highest per-program median")
}

// sampledArgs is the emsim command line of one sampled op.
func sampledArgs(op sampledOp) []string {
	args := []string{"-sample", "-json", "-j", "1", "-cores", "4",
		"-sample-interval", strconv.Itoa(sampleInterval), "-sample-clusters", strconv.Itoa(sampleClusters),
		"-sample-warmup", strconv.Itoa(sampleWarmup), "-sample-seed", strconv.FormatUint(op.SampleSeed, 10)}
	if op.Input == "mcf" {
		return append(args, "-replay", traceFile)
	}
	return append(args, "-workload", "em3d", "-instr", strconv.Itoa(sampleEm3dInstr))
}

// accuracy compares a sampled estimate with the full-fidelity truth: the
// largest relative error over metrics whose truth is nonzero, and the
// rows whose truth falls outside their bars.
func accuracy(res report.SampleResultJSON, truth report.RunResultJSON) (errPct float64, outside int, err error) {
	if res.Events != truth.Events || res.TotalInstr != truth.Normal.Instructions {
		return 0, 0, fmt.Errorf("estimate covers %d events / %d instr, the full run %d / %d",
			res.Events, res.TotalInstr, truth.Events, truth.Normal.Instructions)
	}
	if len(res.Estimates) != len(sampling.Metrics) {
		return 0, 0, fmt.Errorf("%d estimate rows, want %d", len(res.Estimates), len(sampling.Metrics))
	}
	for i, est := range res.Estimates {
		def := sampling.Metrics[i]
		st := truth.Normal
		if def.Machine == "migration" {
			st = truth.Migration
		}
		actual := float64(def.Get(st))
		if actual > 0 {
			errPct = math.Max(errPct, 100*math.Abs(est.Total-actual)/actual)
		}
		if actual < est.Lo || actual > est.Hi {
			outside++
		}
	}
	return errPct, outside, nil
}

// sampledOpRun runs one sampled op and checks it against its digest and
// the truth.
func (e *env) sampledOpRun(p *prepared, op sampledOp) (pr proc, res report.SampleResultJSON, err error) {
	pr, err = run(p.dir, p.emsim, sampledArgs(op)...)
	if err != nil {
		return pr, res, err
	}
	if err := e.check(e.g.Sampled, op.id(), pr.stdout); err != nil {
		return pr, res, err
	}
	if err := json.Unmarshal(pr.stdout, &res); err != nil {
		return pr, res, err
	}
	return pr, res, nil
}

func (e *env) runSampled(p *prepared, seed uint64, seconds float64, o *outcome) {
	var walls []float64
	var instr, errPct float64
	rss := peakRSS{}
	outside := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		for _, op := range sampledOrder(seed, round) {
			o.attempted++
			pr, res, err := e.sampledOpRun(p, op)
			rss.add(op.id(), pr.rssMB)
			var ep float64
			var out int
			if err == nil {
				ep, out, err = accuracy(res, p.truth[op.Input])
			}
			if err != nil {
				o.fail(fmt.Errorf("%s: %w", op.id(), err))
				continue
			}
			walls = append(walls, pr.wall.Seconds())
			instr += float64(res.TotalInstr)
			errPct = math.Max(errPct, ep)
			if round == 0 {
				outside += out
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	o.add("op_p50_s", "s", median(walls), fmt.Sprintf("%d ops", len(walls)))
	o.add("minstr_per_s", "Minstr/s", instr/sum(walls)/1e6, "covered instructions")
	o.add("ops_per_s", "1/s", float64(len(walls))/elapsed, "")
	o.add("peak_rss_mb", "MB", rss.value(), "highest per-op median")
	o.add("sample_err_pct", "%", errPct, "largest |estimate-truth|/truth")
	o.add("sample_outside_bars", "count", float64(outside), fmt.Sprintf("of %d estimate rows in one round", len(allSampledOps())*len(sampling.Metrics)))
}

// clientLog is one service client's record.
type clientLog struct {
	hits, misses []float64 // latencies, seconds
	missInstr    float64
}

// checkReply checks a /run reply against its digest and against the
// path the mix expects: a miss simulates, everything else is a hit.
func (e *env) checkReply(req request, body []byte, hit bool) error {
	if hit == req.Miss {
		return fmt.Errorf("%s: served as hit=%v, the mix expects hit=%v", req.Spec.id(), hit, !req.Miss)
	}
	return e.check(e.g.Service, req.Spec.id(), body)
}

// daemonArgs is the emsimd command line every workload runs it with.
func daemonArgs(storeDir string) []string {
	return []string{"-workers", strconv.Itoa(daemonJobs), "-cache", strconv.Itoa(daemonCache), "-store-dir", storeDir}
}

func (e *env) runService(p *prepared, seed uint64, seconds float64, o *outcome) error {
	if err := copyDir(filepath.Join(p.dir, "seedstore"), filepath.Join(p.dir, "runstore")); err != nil {
		return err
	}
	d, err := startDaemon(p.dir, p.emsimd, daemonArgs("runstore")...)
	if err != nil {
		return err
	}
	logs := make([]clientLog, clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			next := clientSequence(seed, c)
			lg := &logs[c]
			for time.Now().Before(deadline) {
				req, ok := next()
				if !ok {
					// Running short would end the run early without a
					// trace in the figures, so it fails the run instead.
					mu.Lock()
					o.fail(fmt.Errorf("client %d used up the %d-spec miss pool %.1f s before the deadline: raise missVariants and run regen",
						c, len(missPool()), time.Until(deadline).Seconds()))
					mu.Unlock()
					return
				}
				t0 := time.Now()
				body, hit, err := postRun(cl, d.addr, req.Spec)
				lat := time.Since(t0).Seconds()
				if err == nil {
					err = e.checkReply(req, body, hit)
				}
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail(err)
				}
				mu.Unlock()
				switch {
				case err != nil:
				case req.Miss:
					lg.misses = append(lg.misses, lat)
					lg.missInstr += float64(req.Spec.Instr)
				default:
					lg.hits = append(lg.hits, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	rss, err := d.stop()
	if err != nil {
		o.fail(err)
	}
	var hits, misses []float64
	var missInstr float64
	for _, lg := range logs {
		hits = append(hits, lg.hits...)
		misses = append(misses, lg.misses...)
		missInstr += lg.missInstr
	}
	if len(hits) == 0 || len(misses) == 0 {
		o.fail(fmt.Errorf("run had %d hits and %d misses; the mix needs both", len(hits), len(misses)))
	}
	all := append(append([]float64(nil), hits...), misses...)
	o.add("op_p50_s", "s", median(all), fmt.Sprintf("%d requests", len(all)))
	o.add("minstr_per_s", "Minstr/s", missInstr/math.Max(sum(misses), 1e-9)/1e6, "simulated by misses")
	o.add("ops_per_s", "1/s", float64(len(all))/elapsed, "= service_rps")
	o.add("peak_rss_mb", "MB", rss, "emsimd")
	o.add("hit_p50_ms", "ms", 1e3*median(hits), fmt.Sprintf("%d hits", len(hits)))
	if pct, v, beyond, ok := tail(hits); ok {
		o.add("hit_tail_ms", "ms", 1e3*v, fmt.Sprintf("p%g, %d hits beyond", pct, beyond))
	}
	o.add("miss_p50_s", "s", median(misses), fmt.Sprintf("%d misses", len(misses)))
	o.add("service_rps", "req/s", float64(len(all))/elapsed, "")
	// The mix's criterion (spec.go): misses carry half the clients' time.
	o.add("miss_share_pct", "%", 100*sum(misses)/math.Max(sum(all), 1e-9), "of the clients' request time; the mix aims at 50")
	if len(hits) > 0 && len(misses) > 0 {
		o.add("hits_per_miss_balanced", "count", (sum(misses)/float64(len(misses)))/(sum(hits)/float64(len(hits))),
			fmt.Sprintf("mean miss / mean hit latency; the mix runs %d", hitsPerMiss))
	}
	return nil
}
