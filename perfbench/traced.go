package main

// The traced pass. It rebuilds each op from the simulator's packages,
// in process, and times calls into each layer's public functions from
// outside: sink wrappers at every mem.BatchSink boundary, and direct
// timing of sampling.*, machine checkpoints, report writers, the store
// and the service. Nothing is traced inside the program. Every rebuilt
// op's output is checked against the same digests as the end-to-end
// ops, so the traced pass measures the code path users run.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sampling"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit string }

// perLayer lists the per-layer metrics in BENCHMARK.json order. A traced
// run takes each from the workload it runs where that workload exercises
// the layer, and from a complement round of another workload where it
// does not (see runTraced).
var perLayer = []layerMetric{
	{"workloads.gen_ns_per_event", "ns/event"},
	{"trace.decode_ns_per_event", "ns/event"},
	{"machine.normal_ns_per_event", "ns/event"},
	{"machine.migration_ns_per_event", "ns/event"},
	{"machine.migration_ns_per_l1miss", "ns/miss"},
	{"machine.l1_misses_per_kinstr", "1/kinstr"},
	{"machine.l2_misses_per_kinstr", "1/kinstr"},
	{"machine.migrations_per_kinstr", "1/kinstr"},
	{"machine.roundtrip_ms", "ms"},
	{"machine.ckpt_bytes", "B"},
	{"telemetry.tick_us", "us"},
	{"telemetry.jsonl_ms", "ms"},
	{"sampling.profile_ns_per_event", "ns/event"},
	{"sampling.profile_alloc_bytes_per_event", "B/event"},
	{"sampling.cluster_ms", "ms"},
	{"sampling.plan_ms", "ms"},
	{"sampling.estimate_us", "us"},
	{"sampling.simulate_s", "s"},
	{"sampling.simulate_sink_s", "s"},
	{"sampling.savings", "x"},
	{"sampling.source_passes", "count"},
	{"sampling.measured_intervals", "count"},
	{"lrustack.dropped", "count"},
	{"report.run_json_us", "us"},
	{"report.sample_json_us", "us"},
	{"service.http_hit_us", "us"},
	{"service.run_hit_us", "us"},
	{"service.run_miss_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"service.cache_hits", "count"},
	{"service.store_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.rejected", "count"},
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.gc_per_mevent", "1/Mevent"},
	{"gap.full_pct", "%"},
	{"gap.sampled_pct", "%"},
	{"gap.service_pct", "%"},
	{"trace_overhead_pct", "%"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// selfTimes accumulates each layer's self time over a workload's ops.
type selfTimes struct {
	order []string
	d     map[string]time.Duration
}

func (s *selfTimes) add(layer string, d time.Duration) {
	if s.d == nil {
		s.d = map[string]time.Duration{}
	}
	if _, ok := s.d[layer]; !ok {
		s.order = append(s.order, layer)
	}
	s.d[layer] += d
}

func (s *selfTimes) merge(o selfTimes) {
	for _, l := range o.order {
		s.add(l, o.d[l])
	}
}

func (s *selfTimes) total() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// timed wraps a sink and accumulates the time spent inside it.
type timed struct {
	inner  mem.BatchSink
	in     time.Duration
	events uint64
}

func (t *timed) Access(a mem.Addr, k mem.Kind) {
	t0 := time.Now()
	t.inner.Access(a, k)
	t.in += time.Since(t0)
	t.events++
}

func (t *timed) Instr(n uint64) {
	t0 := time.Now()
	t.inner.Instr(n)
	t.in += time.Since(t0)
	t.events++
}

func (t *timed) AccessBatch(b *mem.Batch) {
	t0 := time.Now()
	t.inner.AccessBatch(b)
	t.in += time.Since(t0)
	t.events += uint64(b.Len())
}

// splitter is the serial tee of emsim -j 1: it hands every batch to
// both machines in spans that end at timeline boundaries, and samples
// both timelines there.
type splitter struct {
	a, b   mem.BatchSink
	every  uint64 // timeline interval; 0 = no timeline
	tick   func(events uint64)
	events uint64
	view   mem.Batch
}

func (s *splitter) boundary() {
	if s.every > 0 && s.events%s.every == 0 {
		s.tick(s.events)
	}
}

func (s *splitter) Access(a mem.Addr, k mem.Kind) {
	s.events++
	s.a.Access(a, k)
	s.b.Access(a, k)
	s.boundary()
}

func (s *splitter) Instr(n uint64) {
	s.events++
	s.a.Instr(n)
	s.b.Instr(n)
	s.boundary()
}

func (s *splitter) AccessBatch(b *mem.Batch) {
	i, n := 0, b.Len()
	for i < n {
		span := uint64(n - i)
		if s.every > 0 {
			if next := s.every - s.events%s.every; next < span {
				span = next
			}
		}
		s.view.Addr = b.Addr[i : i+int(span)]
		s.view.Kind = b.Kind[i : i+int(span)]
		s.a.AccessBatch(&s.view)
		s.b.AccessBatch(&s.view)
		s.events += span
		i += int(span)
		s.boundary()
	}
}

// runSpec is one two-machine run: a `full` op (with a timeline) or a
// service miss (without).
type runSpec struct {
	workload         string
	instr            uint64
	cores            int
	policy, topology string
	interval         uint64
}

// pipeRun is one rebuilt run.
type pipeRun struct {
	wall           time.Duration
	self           selfTimes
	events         uint64
	ticks          int
	tickTime       time.Duration
	normalT, migT  time.Duration
	genT           time.Duration // generator self time, without construction
	jsonT, jsonlT  time.Duration
	mig            machine.Stats
	json, timeline []byte
}

// runPipe runs spec through the packages emsim and emsimd use. Traced,
// every layer boundary is timed; bare, only the whole op is.
func runPipe(spec runSpec, traced bool) (*pipeRun, error) {
	r := &pipeRun{}
	start := time.Now()
	t0 := time.Now()
	w, err := suite.Registry().New(spec.workload)
	if err != nil {
		return nil, err
	}
	r.self.add("workloads", time.Since(t0))
	t0 = time.Now()
	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		return nil, err
	}
	migCfg, err := machine.MigrationConfigScenario(spec.cores, spec.policy, spec.topology)
	if err != nil {
		return nil, err
	}
	mig, err := machine.New(migCfg)
	if err != nil {
		return nil, err
	}
	r.self.add("machine", time.Since(t0))
	var nt, mt *telemetry.Timeline
	sp := &splitter{a: normal, b: mig, every: spec.interval}
	if spec.interval > 0 {
		t0 = time.Now()
		if nt, err = telemetry.NewTimeline(normal.Telemetry(), spec.interval, 256); err != nil {
			return nil, err
		}
		if mt, err = telemetry.NewTimeline(mig.Telemetry(), spec.interval, 256); err != nil {
			return nil, err
		}
		r.self.add("telemetry", time.Since(t0))
		sp.tick = func(ev uint64) {
			nt.MaybeSample(ev)
			mt.MaybeSample(ev)
		}
	}
	var nIn, mIn *timed
	var outer mem.BatchSink = sp
	var outerT *timed
	if traced {
		nIn, mIn = &timed{inner: normal}, &timed{inner: mig}
		sp.a, sp.b = nIn, mIn
		if spec.interval > 0 {
			tick := sp.tick
			sp.tick = func(ev uint64) {
				t := time.Now()
				tick(ev)
				r.tickTime += time.Since(t)
				r.ticks++
			}
		}
		outerT = &timed{inner: sp}
		outer = outerT
	}
	t0 = time.Now()
	ba := mem.NewBatcher(outer, 0)
	w.Run(ba, spec.instr)
	ba.Flush()
	runWall := time.Since(t0)
	if traced {
		r.genT = runWall - outerT.in
		r.normalT, r.migT = nIn.in, mIn.in
		r.self.add("workloads", r.genT)
		r.self.add("machine", r.normalT+r.migT)
		r.self.add("telemetry", r.tickTime)
	}
	r.events = sp.events

	t0 = time.Now()
	ns, ms := normal.FinalStats(), mig.FinalStats()
	r.self.add("machine", time.Since(t0))
	r.mig = ms
	if spec.interval > 0 {
		t0 = time.Now()
		var buf bytes.Buffer
		rows := telemetry.MergeRows(nt.Rows("normal"), mt.Rows("migration"))
		if err := telemetry.WriteJSONLWithFooter(&buf, rows, nt.Dropped()+mt.Dropped()); err != nil {
			return nil, err
		}
		r.jsonlT = time.Since(t0)
		r.self.add("telemetry", r.jsonlT)
		r.timeline = buf.Bytes()
	}
	topo := ""
	if migCfg.Topology != nil {
		topo = migCfg.Topology.Name
	}
	t0 = time.Now()
	var buf bytes.Buffer
	if err := report.WriteRunJSON(&buf, report.RunResultJSON{
		Workload: spec.workload, Instr: spec.instr, Cores: spec.cores,
		Policy: migCfg.Policy, Topology: topo, Events: sp.events, Normal: ns, Migration: ms,
	}); err != nil {
		return nil, err
	}
	r.jsonT = time.Since(t0)
	r.self.add("report", r.jsonT)
	r.json = buf.Bytes()
	r.wall = time.Since(start)
	return r, nil
}

// workloadTrace is one workload's traced figures.
type workloadTrace struct {
	wall   time.Duration // summed traced op wall time, in process
	e2e    time.Duration // the same ops through the built binaries, untraced
	self   selfTimes
	events uint64 // events the ops consumed, for runtime.* per event
	alloc  uint64
	gcs    uint64
}

// gapPct is the share of the end-to-end time of the ops that no
// measured layer accounts for.
func (w *workloadTrace) gapPct() float64 {
	if w.e2e == 0 {
		return 0
	}
	return 100 * (w.e2e - w.self.total()).Seconds() / w.e2e.Seconds()
}

// heapCounters reads the heap bytes allocated and the GC cycles
// completed so far, without stopping the world.
type heapCounters []metrics.Sample

func newHeapCounters() heapCounters {
	return heapCounters{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
}

func (h heapCounters) read() (bytes, gcs uint64) {
	metrics.Read(h)
	return h[0].Value.Uint64(), h[1].Value.Uint64()
}

// memDelta adds the allocation and GC cycles of fn to w.
func memDelta(w *workloadTrace, fn func()) {
	h := newHeapCounters()
	a0, g0 := h.read()
	fn()
	a1, g1 := h.read()
	w.alloc += a1 - a0
	w.gcs += g1 - g0
}

// another reports whether round n (from 0) starts: the first always
// does, a later one only if a round of the mean length so far still ends
// within seconds. With seconds 0 there is one round.
func another(start time.Time, n int, seconds float64) bool {
	if n == 0 {
		return true
	}
	el := time.Since(start).Seconds()
	return el+el/float64(n) <= seconds
}

// complementFull is the op set of a `full` complement round: a
// streaming, an indirect and a migration-friendly program.
var complementFull = []string{"171.swim", "181.mcf", "em3d"}

// fullTraced runs `full` ops, each bare, traced and through emsim, in
// whole passes that fit in seconds (at least one). With seconds 0 it
// runs the complement round.
func (e *env) fullTraced(p *prepared, seed uint64, seconds float64, o *outcome) *workloadTrace {
	wt := &workloadTrace{}
	var runs []*pipeRun
	var bare, tick time.Duration
	ticks := 0
	start := time.Now()
	for pass := 0; another(start, pass, seconds); pass++ {
		names := complementFull
		if seconds > 0 {
			names = fullOrder(seed, pass)
		}
		for i, name := range names {
			spec := runSpec{workload: name, instr: fullInstr, cores: 4, interval: timelineInterval}
			var b, t *pipeRun
			var err error
			// Alternate which side runs first, so warm-up favours neither.
			runBare := func() {
				if err == nil {
					b, err = runPipe(spec, false)
				}
			}
			runTraced := func() {
				if err == nil {
					memDelta(wt, func() { t, err = runPipe(spec, true) })
				}
			}
			if i%2 == 0 {
				runBare()
				runTraced()
			} else {
				runTraced()
				runBare()
			}
			var e2e time.Duration
			if err == nil {
				e2e, _, _, err = e.fullOp(p, name)
			}
			o.attempted += 3
			for _, r := range []*pipeRun{b, t} {
				if err == nil {
					err = e.check(e.g.Full, name+"/json", r.json)
				}
				if err == nil {
					err = e.check(e.g.Full, name+"/timeline", r.timeline)
				}
			}
			if err != nil {
				o.fail(fmt.Errorf("traced full %s: %w", name, err))
				continue
			}
			runs = append(runs, t)
			bare += b.wall
			wt.e2e += e2e
			wt.wall += t.wall
			wt.self.merge(t.self)
			wt.events += t.events
			tick += t.tickTime
			ticks += t.ticks
		}
	}
	if len(runs) == 0 {
		return wt
	}
	addPipeMetrics(o, runs)
	var jsonl time.Duration
	for _, r := range runs {
		jsonl += r.jsonlT
	}
	o.add("telemetry.tick_us", "us", tick.Seconds()*1e6/math.Max(1, float64(ticks)), fmt.Sprintf("%d boundaries, both machines", ticks))
	o.add("telemetry.jsonl_ms", "ms", jsonl.Seconds()*1e3/float64(len(runs)), "per op")
	o.add("trace_overhead_pct", "%", 100*(wt.wall-bare).Seconds()/bare.Seconds(),
		fmt.Sprintf("traced vs bare in-process wall, %d full ops", len(runs)))
	return wt
}

// addPipeMetrics reports the generator, machine and report figures of
// rebuilt two-machine runs. The miss and migration rates are the
// migration machine's.
func addPipeMetrics(o *outcome, runs []*pipeRun) {
	var gen, normal, mig, rjson time.Duration
	var events, l1, l2, migs, instr uint64
	for _, r := range runs {
		gen += r.genT
		normal += r.normalT
		mig += r.migT
		rjson += r.jsonT
		events += r.events
		l1 += r.mig.L1Misses()
		l2 += r.mig.L2Misses
		migs += r.mig.Migrations
		instr += r.mig.Instructions
	}
	ev, kinstr := float64(events), float64(instr)/1e3
	runsNote := fmt.Sprintf("%d runs", len(runs))
	o.add("workloads.gen_ns_per_event", "ns/event", nsPer(gen, ev), runsNote)
	o.add("machine.normal_ns_per_event", "ns/event", nsPer(normal, ev), runsNote)
	o.add("machine.migration_ns_per_event", "ns/event", nsPer(mig, ev), runsNote)
	o.add("machine.migration_ns_per_l1miss", "ns/miss", nsPer(mig, float64(l1)), "")
	o.add("machine.l1_misses_per_kinstr", "1/kinstr", float64(l1)/kinstr, "migration machine")
	o.add("machine.l2_misses_per_kinstr", "1/kinstr", float64(l2)/kinstr, "migration machine")
	o.add("machine.migrations_per_kinstr", "1/kinstr", float64(migs)/kinstr, "")
	o.add("report.run_json_us", "us", rjson.Seconds()*1e6/float64(len(runs)), "WriteRunJSON per run")
}

func nsPer(d time.Duration, n float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / n
}

// sampleShape is one sampled run, as report.SampleConfig takes it.
type sampleShape struct {
	workload string // generated input; "" when replaying
	replay   string // path of the trace to replay
	name     string // the trace path as the JSON echoes it
	instr    uint64
	interval uint64
	clusters int
	seed     uint64
	warmup   int
}

// source is a sampling.Source that times itself: the time inside the
// sink it is handed, and the rest (generation or decode).
type source struct {
	shape  sampleShape
	passes int
	self   time.Duration // generator or decoder self time
	in     time.Duration // time inside the sink
	events uint64
}

func (s *source) run(sink mem.BatchSink) error {
	s.passes++
	t := &timed{inner: sink}
	start := time.Now()
	// Simulate ends a chain by panicking through the source; the
	// deferred accounting still sees the pass.
	defer func() {
		s.self += time.Since(start) - t.in
		s.in += t.in
		s.events += t.events
	}()
	if s.shape.replay != "" {
		return replay(s.shape.replay, t)
	}
	w, err := suite.Registry().New(s.shape.workload)
	if err != nil {
		return err
	}
	ba := mem.NewBatcher(t, 0)
	w.Run(ba, s.shape.instr)
	ba.Flush()
	return nil
}

func replay(path string, sink mem.BatchSink) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewBatchReader(f)
	if err != nil {
		return err
	}
	_, err = tr.ReplayBatches(sink, nil)
	return err
}

// allocSink measures the heap bytes allocated inside a sink.
type allocSink struct {
	timed
	heap  heapCounters
	bytes uint64
}

func newAllocSink(inner mem.BatchSink) *allocSink {
	return &allocSink{timed: timed{inner: inner}, heap: newHeapCounters()}
}

func (a *allocSink) AccessBatch(b *mem.Batch) {
	before, _ := a.heap.read()
	a.timed.AccessBatch(b)
	after, _ := a.heap.read()
	a.bytes += after - before
}

// sampleRun is one rebuilt sampled run.
type sampleRun struct {
	wall                         time.Duration
	self                         selfTimes
	src                          *source
	profT                        time.Duration
	profEvents, profAlloc        uint64
	clusterT, planT, estT, jsonT time.Duration
	simT, simIn                  time.Duration
	res                          report.SampleResultJSON
	json                         []byte
}

// runSampledPipe is report.SampleRun rebuilt with every stage timed.
func runSampledPipe(sh sampleShape) (*sampleRun, error) {
	r := &sampleRun{src: &source{shape: sh}}
	start := time.Now()
	normalCfg := machine.NormalConfig()
	migCfg, err := machine.MigrationConfigScenario(4, "", "")
	if err != nil {
		return nil, err
	}
	prof, err := sampling.NewProfiler(sh.interval, normalCfg.LineShift)
	if err != nil {
		return nil, err
	}
	ps := newAllocSink(prof)
	if err := r.src.run(ps); err != nil {
		return nil, err
	}
	intervals := prof.Finish()
	r.profT, r.profEvents, r.profAlloc = ps.in, ps.events, ps.bytes
	t0 := time.Now()
	cl := sampling.Cluster(intervals, sh.clusters, sh.seed)
	r.clusterT = time.Since(t0)
	t0 = time.Now()
	plan := sampling.NewPlan(intervals, cl, sh.warmup)
	r.planT = time.Since(t0)
	profIn := r.src.in
	t0 = time.Now()
	sim, err := sampling.Simulate(context.Background(), r.src.run, intervals, plan, sampling.SimConfig{
		Normal: normalCfg, Mig: migCfg, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	r.simT = time.Since(t0)
	r.simIn = r.src.in - profIn
	t0 = time.Now()
	est := sampling.Estimates(plan, sim, prof.TotalInstr())
	r.estT = time.Since(t0)
	r.res = report.SampleResultJSON{
		Workload: sh.workload, Replay: sh.name, Instr: sh.instr, Cores: 4, Estimated: true,
		Sample:            report.SampleParamsJSON{Interval: sh.interval, Clusters: sh.clusters, Seed: sh.seed, Warmup: sh.warmup},
		Events:            prof.Events(),
		TotalInstr:        prof.TotalInstr(),
		Intervals:         len(intervals),
		MeasuredIntervals: len(plan.Measured),
		ClustersUsed:      cl.K(),
		SimulatedEvents:   sim.DeliveredEvents,
		// The profiler's stack is the lrustack layer; its drops explain
		// approximate signatures.
		ProfileStackDropped: prof.StackDropped(),
		Estimates:           est,
	}
	if sim.DeliveredEvents > 0 {
		r.res.Savings = float64(prof.Events()) / float64(sim.DeliveredEvents)
	}
	t0 = time.Now()
	var buf bytes.Buffer
	if err := report.WriteSampleJSON(&buf, r.res); err != nil {
		return nil, err
	}
	r.jsonT = time.Since(t0)
	r.json = buf.Bytes()
	r.wall = time.Since(start)

	src := "workloads"
	if sh.replay != "" {
		src = "trace"
	}
	r.self.add(src, r.src.self)
	r.self.add("sampling.profile", r.profT)
	r.self.add("sampling.cluster+plan+estimate", r.clusterT+r.planT+r.estT)
	r.self.add("sampling.chains (machine, warm starts)", r.simIn)
	r.self.add("report", r.jsonT)
	return r, nil
}

// emsimReplayInstr is the -instr value emsim echoes into a replayed
// run's JSON: its flag default, since a trace replays in full.
const emsimReplayInstr = 20_000_000

func opShape(op sampledOp, dir string) sampleShape {
	sh := sampleShape{workload: "em3d", instr: sampleEm3dInstr, interval: sampleInterval,
		clusters: sampleClusters, seed: op.SampleSeed, warmup: sampleWarmup}
	if op.Input == "mcf" {
		sh.workload, sh.replay, sh.name, sh.instr = "", filepath.Join(dir, traceFile), traceFile, emsimReplayInstr
	}
	return sh
}

// complementSampled is the op set of a `sampled` complement round: the
// replayed input, the only one that decodes a trace.
var complementSampled = []sampledOp{{"mcf", 1}}

// sampledTraced runs `sampled` ops, each traced and through emsim, in
// whole rounds that fit in seconds (at least one), and times a
// checkpoint round trip on a warmed machine pair. With seconds 0 it runs
// the complement round.
func (e *env) sampledTraced(p *prepared, seed uint64, seconds float64, o *outcome) *workloadTrace {
	wt := &workloadTrace{}
	var runs []*sampleRun
	start := time.Now()
	for round := 0; another(start, round, seconds); round++ {
		ops := complementSampled
		if seconds > 0 {
			ops = sampledOrder(seed, round)
		}
		for _, op := range ops {
			o.attempted++
			var r *sampleRun
			var err error
			memDelta(wt, func() { r, err = runSampledPipe(opShape(op, p.dir)) })
			if err == nil {
				err = e.check(e.g.Sampled, op.id(), r.json)
			}
			var pr proc
			if err == nil {
				o.attempted++
				pr, _, err = e.sampledOpRun(p, op)
			}
			if err != nil {
				o.fail(fmt.Errorf("traced sampled %s: %w", op.id(), err))
				continue
			}
			runs = append(runs, r)
			wt.e2e += pr.wall
			wt.wall += r.wall
			wt.self.merge(r.self)
			wt.events += r.src.events
		}
	}
	if len(runs) == 0 {
		return wt
	}
	addSampleMetrics(o, runs)
	rt, size, err := checkpointCost()
	if err != nil {
		o.fail(fmt.Errorf("checkpoint round trip: %w", err))
	}
	o.add("machine.roundtrip_ms", "ms", rt, "EMCKPT1 round trip of a warmed pair, median of 5")
	o.add("machine.ckpt_bytes", "B", size, "")
	return wt
}

// addSampleMetrics reports the figures of rebuilt sampled runs: the
// sampling stages per op, and the source's generator or decoder self
// time per event over all its passes. A name o already holds keeps its
// first figure (see outcome.find).
func addSampleMetrics(o *outcome, runs []*sampleRun) {
	n := float64(len(runs))
	var gen, decode, cluster, plan, est, sim, simIn, js time.Duration
	var genEv, decodeEv uint64
	var prof, profEv, profAlloc float64
	var savings, passes, measured, dropped float64
	for _, r := range runs {
		if r.src.shape.replay != "" {
			decode += r.src.self
			decodeEv += r.src.events
		} else {
			gen += r.src.self
			genEv += r.src.events
		}
		prof += float64(r.profT.Nanoseconds())
		profEv += float64(r.profEvents)
		profAlloc += float64(r.profAlloc)
		cluster += r.clusterT
		plan += r.planT
		est += r.estT
		sim += r.simT
		simIn += r.simIn
		js += r.jsonT
		savings += r.res.Savings
		passes += float64(r.src.passes)
		measured += float64(r.res.MeasuredIntervals)
		dropped += float64(r.res.ProfileStackDropped)
	}
	if genEv > 0 {
		o.add("workloads.gen_ns_per_event", "ns/event", nsPer(gen, float64(genEv)), "regenerated streams, every pass")
	}
	if decodeEv > 0 {
		o.add("trace.decode_ns_per_event", "ns/event", nsPer(decode, float64(decodeEv)), "mcf replay, every pass")
	}
	o.add("sampling.profile_ns_per_event", "ns/event", prof/profEv, "")
	o.add("sampling.profile_alloc_bytes_per_event", "B/event", profAlloc/profEv, "")
	o.add("sampling.cluster_ms", "ms", cluster.Seconds()*1e3/n, "per op")
	o.add("sampling.plan_ms", "ms", plan.Seconds()*1e3/n, "per op")
	o.add("sampling.estimate_us", "us", est.Seconds()*1e6/n, "per op")
	o.add("sampling.simulate_s", "s", sim.Seconds()/n, "per op")
	o.add("sampling.simulate_sink_s", "s", simIn.Seconds()/n, "per op; the rest of simulate_s is regeneration or decode")
	o.add("sampling.savings", "x", savings/n, "mean per op")
	o.add("sampling.source_passes", "count", passes/n, "per op, profile pass included")
	o.add("sampling.measured_intervals", "count", measured/n, "per op")
	o.add("lrustack.dropped", "count", dropped/n, "per op")
	o.add("report.sample_json_us", "us", js.Seconds()*1e6/n, "per op")
}

// checkpointCost warms the em3d machine pair to a chain's typical
// warm-start point and times machine.RoundTripCheckpoint on it.
func checkpointCost() (ms, size float64, err error) {
	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		return 0, 0, err
	}
	mig, err := machine.New(machine.MigrationConfig())
	if err != nil {
		return 0, 0, err
	}
	w, err := suite.Registry().New("em3d")
	if err != nil {
		return 0, 0, err
	}
	ba := mem.NewBatcher(&splitter{a: normal, b: mig}, 0)
	w.Run(ba, sampleEm3dInstr/2)
	ba.Flush()
	ns, err := normal.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	msnap, err := mig.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	ck := &machine.Checkpoint{Cores: 4, Machines: []machine.NamedSnapshot{{Name: "normal", Snap: ns}, {Name: "migration", Snap: msnap}}}
	var cw countWriter
	if err := machine.WriteCheckpoint(&cw, ck); err != nil {
		return 0, 0, err
	}
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := machine.RoundTripCheckpoint(ck); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	return median(times), float64(cw), nil
}

type countWriter int64

func (c *countWriter) Write(b []byte) (int, error) {
	*c += countWriter(len(b))
	return len(b), nil
}

// serviceRequests is the fixed prefix of the traced service pass and
// its whole complement round: two blocks of each client's stream, so
// both special misses and two plain misses are in it. The service.*
// counts are taken over it, so they do not grow with the host's speed.
const serviceRequests = 2 * clients * (hitsPerMiss + 1)

// serviceSpec converts a request body to the service's own spec type.
func serviceSpec(s reqSpec) service.RunSpec {
	return service.RunSpec{Workload: s.Workload, Instr: s.Instr, Cores: s.Cores, Policy: s.Policy,
		Topology: s.Topology, Sample: s.Sample, SampleInterval: s.SampleInterval, SampleClusters: s.SampleClusters}
}

// serviceTraced sends the seeded request mix straight into an
// in-process Service handler over a copy of the seeded store: whole
// blocks of the clients' interleaved streams, at least serviceRequests,
// for three quarters of seconds. The same requests then go through
// emsimd, untraced, for the end-to-end time. With seconds 0 it sends
// serviceRequests.
func (e *env) serviceTraced(p *prepared, seed uint64, seconds float64, o *outcome) (*workloadTrace, error) {
	wt := &workloadTrace{}
	dir := filepath.Join(p.dir, "tracedstore")
	if err := copyDir(filepath.Join(p.dir, "seedstore"), dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	scratch, err := store.Open(filepath.Join(p.dir, "putstore"), store.Options{})
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: daemonJobs, CacheEntries: daemonCache, Store: st})
	h := svc.Handler()
	cold := service.New(service.Config{Workers: 1}) // times Run on a miss
	ctx := context.Background()
	next := interleaved(seed)
	heap := newHeapCounters()

	var httpHit, runHit, gets, puts, runMiss []float64
	var pipes []*pipeRun
	var samples []*sampleRun
	type pending struct {
		kind string // "store" or "miss"
		get  time.Duration
		sim  selfTimes
		put  time.Duration
	}
	var later []pending
	sent := 0
	// send is one request of the mix: through the handler, then probed
	// or rebuilt by the path it took.
	send := func(req request) {
		o.attempted++
		sent++
		spec := serviceSpec(req.Spec)
		storeHits := svc.Metrics().StoreHits.Value()
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(req.Spec.id()))
		a0, g0 := heap.read()
		t0 := time.Now()
		h.ServeHTTP(rec, hr)
		wall := time.Since(t0)
		a1, g1 := heap.read()
		wt.alloc += a1 - a0
		wt.gcs += g1 - g0
		wt.wall += wall
		body := rec.Body.Bytes()
		hit := rec.Header().Get(service.CacheHeader) == "hit"
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", rec.Code, body)
		} else {
			err = e.checkReply(req, body, hit)
		}
		if err != nil {
			o.fail(fmt.Errorf("traced service %s: %w", req.Spec.id(), err))
			return
		}
		switch {
		case svc.Metrics().StoreHits.Value() > storeHits:
			t := time.Now()
			if _, err := st.Get(spec.Key()); err != nil {
				o.fail(err)
				return
			}
			get := time.Since(t)
			gets = append(gets, get.Seconds()*1e6)
			later = append(later, pending{kind: "store", get: get})
		case hit:
			t := time.Now()
			if _, _, err := svc.Run(ctx, spec); err != nil {
				o.fail(err)
				return
			}
			rh := time.Since(t)
			runHit = append(runHit, rh.Seconds()*1e6)
			httpHit = append(httpHit, wall.Seconds()*1e6)
			wt.self.add("service (key, cache)", rh)
			wt.self.add("http", wall-rh)
		default:
			pd := pending{kind: "miss"}
			t := time.Now()
			b, _, err := cold.Run(ctx, spec)
			runMiss = append(runMiss, time.Since(t).Seconds()*1e3)
			if err == nil {
				err = e.check(e.g.Service, req.Spec.id(), b)
			}
			var pr *pipeRun
			var sr *sampleRun
			if err == nil {
				pr, sr, err = e.missLayers(req.Spec)
			}
			if err != nil {
				o.fail(fmt.Errorf("traced service miss %s: %w", req.Spec.id(), err))
				return
			}
			if pr != nil {
				pipes = append(pipes, pr)
				pd.sim, wt.events = pr.self, wt.events+pr.events
			} else {
				samples = append(samples, sr)
				pd.sim, wt.events = sr.self, wt.events+sr.src.events
			}
			t = time.Now()
			if err := scratch.Put(spec.Key(), body); err != nil {
				o.fail(err)
				return
			}
			pd.put = time.Since(t)
			puts = append(puts, pd.put.Seconds()*1e6)
			later = append(later, pd)
		}
	}

	const block = clients * (hitsPerMiss + 1)
	var counts [4]float64 // cache hits, store hits, misses, rejected over the prefix
	start := time.Now()
blocks:
	for b := 0; b < serviceRequests/block || another(start, b, seconds*3/4); b++ {
		for i := 0; i < block; i++ {
			req, ok := next()
			if !ok {
				o.fail(fmt.Errorf("traced service: the miss pool ran out after %d requests", sent))
				break blocks
			}
			send(req)
		}
		if sent == serviceRequests {
			m := svc.Metrics()
			// The Service.Run probes on hits are cache hits too; they are
			// not part of the mix.
			counts = [4]float64{float64(m.CacheHits.Value()) - float64(len(runHit)), float64(m.StoreHits.Value()),
				float64(m.CacheMisses.Value()), float64(m.Rejected.Value())}
		}
	}
	if wt.e2e, err = e.serviceE2E(p, seed, sent, o); err != nil {
		return nil, err
	}
	// Store hits and misses are attributed with the medians of the
	// directly timed hit path: their HTTP and key/cache work is the same.
	httpSelf := time.Duration((median(httpHit) - median(runHit)) * 1e3)
	runSelf := time.Duration(median(runHit) * 1e3)
	for _, pd := range later {
		wt.self.add("http", httpSelf)
		if pd.kind == "store" {
			wt.self.add("service (key, cache)", runSelf)
			wt.self.add("store", pd.get)
			continue
		}
		wt.self.merge(pd.sim)
		wt.self.add("store", pd.put)
	}
	o.add("service.http_hit_us", "us", median(httpHit), fmt.Sprintf("ServeHTTP, %d memory hits", len(httpHit)))
	o.add("service.run_hit_us", "us", median(runHit), "Service.Run")
	o.add("service.run_miss_ms", "ms", median(runMiss), fmt.Sprintf("%d misses", len(runMiss)))
	o.add("store.get_us", "us", median(gets), fmt.Sprintf("%d first touches", len(gets)))
	o.add("store.put_us", "us", median(puts), "")
	prefix := fmt.Sprintf("over the first %d requests", serviceRequests)
	o.add("service.cache_hits", "count", counts[0], prefix)
	o.add("service.store_hits", "count", counts[1], prefix)
	o.add("service.cache_misses", "count", counts[2], prefix)
	o.add("service.rejected", "count", counts[3], prefix)
	if len(pipes) > 0 {
		addPipeMetrics(o, pipes)
	}
	if len(samples) > 0 {
		addSampleMetrics(o, samples)
	}
	return wt, nil
}

// serviceE2E sends the first n requests of the traced pass's sequence
// through emsimd over HTTP, untraced, and returns the summed request
// latency.
func (e *env) serviceE2E(p *prepared, seed uint64, n int, o *outcome) (time.Duration, error) {
	dir := "e2estore"
	if err := copyDir(filepath.Join(p.dir, "seedstore"), filepath.Join(p.dir, dir)); err != nil {
		return 0, err
	}
	d, err := startDaemon(p.dir, p.emsimd, daemonArgs(dir)...)
	if err != nil {
		return 0, err
	}
	next := interleaved(seed)
	cl := newClient()
	var total time.Duration
	for i := 0; i < n; i++ {
		req, ok := next()
		if !ok {
			break
		}
		o.attempted++
		t0 := time.Now()
		body, hit, err := postRun(cl, d.addr, req.Spec)
		total += time.Since(t0)
		if err == nil {
			err = e.checkReply(req, body, hit)
		}
		if err != nil {
			o.fail(fmt.Errorf("traced service e2e %s: %w", req.Spec.id(), err))
		}
	}
	if _, err := d.stop(); err != nil {
		o.fail(err)
	}
	return total, nil
}

// missLayers rebuilds a service miss with layer timing: the two-machine
// pipeline for a run, the sampling pipeline for a sampled request.
// Exactly one of the two results is set.
func (e *env) missLayers(s reqSpec) (*pipeRun, *sampleRun, error) {
	if s.Sample {
		r, err := runSampledPipe(sampleShape{workload: s.Workload, instr: s.Instr, interval: s.SampleInterval,
			clusters: s.SampleClusters, seed: service.DefaultSampleSeed, warmup: service.DefaultSampleWarmup})
		if err != nil {
			return nil, nil, err
		}
		return nil, r, e.check(e.g.Service, s.id(), r.json)
	}
	r, err := runPipe(runSpec{workload: s.Workload, instr: s.Instr, cores: s.Cores, policy: s.Policy, topology: s.Topology}, true)
	if err != nil {
		return nil, nil, err
	}
	return r, nil, e.check(e.g.Service, s.id(), r.json)
}

// traceWorkload runs one workload's traced pass into o, from its own
// set-up: for seconds, or with seconds 0 its complement round.
func (e *env) traceWorkload(w string, seed uint64, seconds float64, o *outcome) (*workloadTrace, error) {
	dir := filepath.Join(e.work, "traced-"+w)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	p, err := e.setup(w, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var wt *workloadTrace
	switch w {
	case "full":
		wt = e.fullTraced(p, seed, seconds, o)
	case "sampled":
		wt = e.sampledTraced(p, seed, seconds, o)
	default:
		if wt, err = e.serviceTraced(p, seed, seconds, o); err != nil {
			return nil, err
		}
	}
	if wt.events > 0 {
		o.add("runtime.alloc_bytes_per_event", "B/event", float64(wt.alloc)/float64(wt.events), "")
		o.add("runtime.gc_per_mevent", "1/Mevent", float64(wt.gcs)/(float64(wt.events)/1e6), fmt.Sprintf("%d GCs", wt.gcs))
	}
	o.add("gap."+w+"_pct", "%", wt.gapPct(), "")
	return wt, nil
}

// runTraced is the per-layer run of workload: its traced pass, for
// seconds, reports the layers workload exercises. The result line
// carries every per-layer metric, so a metric workload does not exercise
// is taken from a complement round of the first other workload that does
// (complementFull, complementSampled, the first serviceRequests of the
// mix), and its note names that workload.
func (e *env) runTraced(workload string, seed uint64, seconds float64) (*outcome, error) {
	order := []string{workload}
	for _, w := range workloadNames {
		if w != workload {
			order = append(order, w)
		}
	}
	if len(order) == len(workloadNames)+1 {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	o := &outcome{}
	figs := make([]*outcome, len(order))
	for i, w := range order {
		budget := seconds
		if i > 0 {
			budget = 0
		}
		wo := &outcome{}
		wt, err := e.traceWorkload(w, seed, budget, wo)
		if err != nil {
			return nil, err
		}
		printAttribution(w, i > 0, wt)
		o.attempted += wo.attempted
		o.failed += wo.failed
		o.errs = append(o.errs, wo.errs...)
		figs[i] = wo
	}
	o.metrics = pickLayers(order, figs)
	return o, nil
}

// pickLayers returns one figure per per-layer metric: the first
// workload's in order that measured it, with a note naming any other.
func pickLayers(order []string, figs []*outcome) []metric {
	var out []metric
	for _, lm := range perLayer {
		for i, wo := range figs {
			m, ok := wo.find(lm.name)
			if !ok {
				continue
			}
			if i > 0 {
				m.Note = strings.TrimSuffix("from the "+order[i]+" complement round; "+m.Note, "; ")
			}
			out = append(out, m)
			break
		}
	}
	return out
}

// printAttribution prints a workload's layer self-times beside its op
// wall time.
func printAttribution(name string, complement bool, w *workloadTrace) {
	kind := ""
	if complement {
		kind = " (complement round)"
	}
	fmt.Printf("attribution %s%s: end-to-end %.3f s (built binaries, untraced), in process %.3f s (traced)\n",
		name, kind, w.e2e.Seconds(), w.wall.Seconds())
	fmt.Printf("  %-40s %9s   %6s\n", "layer", "self", "of e2e")
	for _, l := range w.self.order {
		d := w.self.d[l]
		fmt.Printf("  %-40s %9.4f s %6.1f%%\n", l, d.Seconds(), 100*d.Seconds()/w.e2e.Seconds())
	}
	fmt.Printf("  %-40s %9.4f s %6.1f%%\n", "gap (end-to-end, no layer)", (w.e2e - w.self.total()).Seconds(), w.gapPct())
	fmt.Printf("  %-40s %9.4f s %6.1f%%\n", "gap (in process, no layer)", (w.wall - w.self.total()).Seconds(),
		100*(w.wall-w.self.total()).Seconds()/w.wall.Seconds())
	fmt.Printf("  runtime: %.1f B allocated per event, %d GCs\n", float64(w.alloc)/math.Max(1, float64(w.events)), w.gcs)
}
