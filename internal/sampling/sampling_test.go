package sampling

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// phasedBody emits reps repetitions of two visibly different phases —
// a tight 16-line loop and a 4096-line streaming sweep — so clustering
// has real structure to find. One Access + one Instr(2) per step.
func phasedBody(sink mem.Sink, reps int) {
	for r := 0; r < reps; r++ {
		for i := 0; i < 1500; i++ {
			sink.Access(mem.AddrOf(mem.Line(i%16), 6), mem.Load)
			sink.Instr(2)
		}
		for i := 0; i < 1500; i++ {
			line := mem.Line((r*1500+i)%4096 + 1<<14)
			kind := mem.Load
			if i%5 == 0 {
				kind = mem.Store
			}
			sink.Access(mem.AddrOf(line, 6), kind)
			sink.Instr(2)
		}
	}
}

// phasedSource drives phasedBody scalar (one sink call per record).
func phasedSource(reps int) Source {
	return func(sink mem.BatchSink) error {
		phasedBody(sink, reps)
		return nil
	}
}

// phasedBatchedSource drives the identical stream through a Batcher.
func phasedBatchedSource(reps int) Source {
	return func(sink mem.BatchSink) error {
		ba := mem.NewBatcher(sink, 0)
		phasedBody(ba, reps)
		ba.Flush()
		return nil
	}
}

// capacityBody alternates a cache-friendly 16-line loop with a
// circular sweep over 9000 lines — larger than the 8192-line paper L2,
// so the sweep misses at full rate in steady state. Sampling can only
// extrapolate recurring behaviour; a cold-miss-dominated stream (every
// line touched once) is fundamentally outside its error model, so the
// accuracy tests drive this stream rather than a first-touch one.
func capacityBody(sink mem.Sink, reps int) {
	pos := 0
	for r := 0; r < reps; r++ {
		for i := 0; i < 1500; i++ {
			sink.Access(mem.AddrOf(mem.Line(i%16), 6), mem.Load)
			sink.Instr(2)
		}
		for i := 0; i < 10000; i++ {
			sink.Access(mem.AddrOf(mem.Line(pos%9000+1<<14), 6), mem.Load)
			sink.Instr(2)
			pos++
		}
	}
}

func capacitySource(reps int) Source {
	return func(sink mem.BatchSink) error {
		ba := mem.NewBatcher(sink, 0)
		capacityBody(ba, reps)
		ba.Flush()
		return nil
	}
}

func profile(t *testing.T, src Source, interval uint64) (*Profiler, []Interval) {
	t.Helper()
	p, err := NewProfiler(interval, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := src(p); err != nil {
		t.Fatal(err)
	}
	return p, p.Finish()
}

func TestProfilerCuts(t *testing.T) {
	p, ivs := profile(t, phasedSource(4), 1000)
	// 4 reps x 3000 steps x 2 instr = 24000 instr -> 24 intervals.
	if len(ivs) != 24 {
		t.Fatalf("got %d intervals, want 24", len(ivs))
	}
	var events, instr, refs uint64
	for i, iv := range ivs {
		if iv.Index != i {
			t.Fatalf("interval %d has Index %d", i, iv.Index)
		}
		if iv.StartEvent != events {
			t.Fatalf("interval %d starts at %d, want %d", i, iv.StartEvent, events)
		}
		if iv.Instr != 1000 {
			t.Fatalf("interval %d retired %d instr, want 1000", i, iv.Instr)
		}
		if len(iv.Sig) == 0 {
			t.Fatalf("interval %d has empty signature", i)
		}
		events = iv.EndEvent
		instr += iv.Instr
		refs += iv.Refs
	}
	if events != p.Events() {
		t.Fatalf("intervals cover %d events, profiler saw %d", events, p.Events())
	}
	if instr != p.TotalInstr() || instr != 24000 {
		t.Fatalf("intervals retire %d instr, profiler counted %d, want 24000", instr, p.TotalInstr())
	}
	if refs != 12000 {
		t.Fatalf("intervals record %d refs, want 12000", refs)
	}
}

func TestProfilerTrailingPartial(t *testing.T) {
	// 2 reps = 12000 instr in 6000 events per rep; cut every 7000 instr
	// leaves a 5000-instr trailing partial that Finish must close.
	_, ivs := profile(t, phasedSource(2), 7000)
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2", len(ivs))
	}
	if ivs[1].Instr != 5000 {
		t.Fatalf("trailing interval retired %d instr, want 5000", ivs[1].Instr)
	}
}

func TestProfilerBatchScalarParity(t *testing.T) {
	_, scalar := profile(t, phasedSource(4), 1000)
	_, batched := profile(t, phasedBatchedSource(4), 1000)
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatal("batched profiling disagrees with scalar")
	}
}

func TestClusterDeterminism(t *testing.T) {
	_, ivs := profile(t, phasedSource(6), 1000)
	a := Cluster(ivs, 4, 42)
	b := Cluster(ivs, 4, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different clusterings")
	}
	if a.K() < 1 || a.K() > 4 {
		t.Fatalf("got %d clusters, want 1..4", a.K())
	}
	total := 0
	for c, n := range a.Size {
		if n == 0 {
			t.Fatalf("cluster %d is empty", c)
		}
		total += n
	}
	if total != len(ivs) {
		t.Fatalf("cluster sizes sum to %d, want %d", total, len(ivs))
	}
	for c, m := range a.Medoid {
		if a.Assign[m] != c {
			t.Fatalf("medoid %d of cluster %d assigned to cluster %d", m, c, a.Assign[m])
		}
	}
	// The two phases are far apart in signature space; k=2 must
	// separate them rather than merge everything.
	if two := Cluster(ivs, 2, 42); two.K() != 2 {
		t.Fatalf("k=2 collapsed to %d clusters", two.K())
	}
}

func TestClusterClamp(t *testing.T) {
	_, ivs := profile(t, phasedSource(1), 1000)
	cl := Cluster(ivs, 100, 1)
	if cl.K() > len(ivs) {
		t.Fatalf("%d clusters for %d intervals", cl.K(), len(ivs))
	}
	for i, c := range cl.Assign {
		if c < 0 || c >= cl.K() {
			t.Fatalf("interval %d assigned to cluster %d of %d", i, c, cl.K())
		}
	}
}

func TestPlanChainsAndWarmup(t *testing.T) {
	_, ivs := profile(t, phasedSource(6), 1000)
	cl := Cluster(ivs, 3, 42)
	plan := NewPlan(ivs, cl, 1)
	if len(plan.Measured) < cl.K() {
		t.Fatalf("%d measured intervals for %d clusters", len(plan.Measured), cl.K())
	}
	for i := 1; i < len(plan.Measured); i++ {
		if plan.Measured[i].Interval <= plan.Measured[i-1].Interval {
			t.Fatal("measured intervals not strictly ascending")
		}
	}
	seen := 0
	for ci, c := range plan.Chains {
		if c.SkipEvents != ivs[c.FirstInterval].StartEvent {
			t.Fatalf("chain %d skips %d events, want %d", ci, c.SkipEvents, ivs[c.FirstInterval].StartEvent)
		}
		if c.FirstInterval > c.LastInterval {
			t.Fatalf("chain %d runs [%d..%d]", ci, c.FirstInterval, c.LastInterval)
		}
		for _, mi := range c.Measured {
			m := plan.Measured[mi]
			if m.Interval < c.FirstInterval || m.Interval > c.LastInterval {
				t.Fatalf("chain %d [%d..%d] does not cover measured interval %d", ci, c.FirstInterval, c.LastInterval, m.Interval)
			}
			// Warmup: at least 1 delivered interval precedes each
			// measured one unless the chain starts at the stream head or
			// the preceding interval is itself inside the chain.
			if m.Interval > 0 && m.Interval-1 < c.FirstInterval {
				t.Fatalf("measured interval %d has no warmup in chain %d", m.Interval, ci)
			}
			seen++
		}
	}
	if seen != len(plan.Measured) {
		t.Fatalf("chains cover %d measured intervals, want %d", seen, len(plan.Measured))
	}
	if plan.DeliveredEvents(ivs) == 0 || plan.DeliveredEvents(ivs) > ivs[len(ivs)-1].EndEvent {
		t.Fatalf("delivered events %d out of range", plan.DeliveredEvents(ivs))
	}
}

// fullTee runs the source at full fidelity through both machines and
// returns the per-interval metric vectors plus the totals.
func fullTee(t *testing.T, src Source, cfg SimConfig) (normal, mig machine.Stats) {
	t.Helper()
	n, err := machine.New(cfg.Normal)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg.Mig)
	if err != nil {
		t.Fatal(err)
	}
	if err := src(n); err != nil {
		t.Fatal(err)
	}
	if err := src(m); err != nil {
		t.Fatal(err)
	}
	return n.Stats, m.Stats
}

func testSimConfig(t *testing.T) SimConfig {
	t.Helper()
	mig, err := machine.MigrationConfigScenario(4, "", "")
	if err != nil {
		t.Fatal(err)
	}
	return SimConfig{Normal: machine.NormalConfig(), Mig: mig}
}

// TestExactWhenEveryIntervalMeasured is the keystone correctness test:
// with k == M every interval is its own cluster, the plan measures all
// of them, and the stratified estimate must reproduce the full-run
// totals exactly with zero-width error bars: a chain's machines are the
// full run's machines over the same events, so the per-cut deltas sum
// to the full-run totals.
func TestExactWhenEveryIntervalMeasured(t *testing.T) {
	src := phasedBatchedSource(3)
	p, ivs := profile(t, src, 1000)
	cfg := testSimConfig(t)
	cl := Cluster(ivs, len(ivs), 42)
	if cl.K() != len(ivs) {
		t.Fatalf("k=M produced %d clusters for %d intervals", cl.K(), len(ivs))
	}
	plan := NewPlan(ivs, cl, 0)
	sim, err := Simulate(context.Background(), src, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Measures) != len(ivs) {
		t.Fatalf("measured %d intervals, want %d", len(sim.Measures), len(ivs))
	}
	ests := Estimates(plan, sim, p.TotalInstr())
	normal, mig := fullTee(t, src, cfg)
	actual := extract(normal, mig)
	for i, e := range ests {
		if e.StdErr != 0 {
			t.Errorf("%s/%s: stderr %g, want 0 for exact reconstruction", e.Machine, e.Metric, e.StdErr)
		}
		if e.Total != float64(actual[i]) {
			t.Errorf("%s/%s: estimate %g, actual %d", e.Machine, e.Metric, e.Total, actual[i])
		}
	}
}

// TestSampledEstimateWithinBars runs a genuine sampled configuration
// (k << M) and checks every actual total lands inside its reported 95%
// interval, at a real event savings.
func TestSampledEstimateWithinBars(t *testing.T) {
	src := capacitySource(6)
	p, ivs := profile(t, src, 2000)
	cfg := testSimConfig(t)
	cl := Cluster(ivs, 4, 42)
	plan := NewPlan(ivs, cl, 1)
	sim, err := Simulate(context.Background(), src, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.DeliveredEvents*2 >= p.Events() {
		t.Fatalf("sampling delivered %d of %d events — no real savings", sim.DeliveredEvents, p.Events())
	}
	ests := Estimates(plan, sim, p.TotalInstr())
	normal, mig := fullTee(t, src, cfg)
	actual := extract(normal, mig)
	for i, e := range ests {
		f := float64(actual[i])
		if f < e.Lo || f > e.Hi {
			t.Errorf("%s/%s: actual %g outside [%g, %g] (estimate %g)", e.Machine, e.Metric, f, e.Lo, e.Hi, e.Total)
		}
	}
}

// TestSimulateWorkerInvariance pins the -j contract: serial and
// parallel chain execution produce identical measures, with fewer
// workers than chains (several chains per lane), one lane per chain,
// and the all-cores default.
func TestSimulateWorkerInvariance(t *testing.T) {
	src := phasedBatchedSource(6)
	_, ivs := profile(t, src, 1000)
	cfg := testSimConfig(t)
	cl := Cluster(ivs, 4, 42)
	plan := NewPlan(ivs, cl, 0)
	if len(plan.Chains) <= 3 {
		t.Fatalf("plan has %d chains; the lanes need more chains than workers", len(plan.Chains))
	}
	var base SimResult
	for i, workers := range []int{1, 2, 3, len(plan.Chains), 0} {
		cfg.Workers = workers
		sim, err := Simulate(context.Background(), src, ivs, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = sim
			continue
		}
		if !reflect.DeepEqual(base, sim) {
			t.Fatalf("workers=%d disagrees with workers=1", workers)
		}
	}
}

// countingSource counts the passes made over src.
func countingSource(src Source, calls *atomic.Int64) Source {
	return func(sink mem.BatchSink) error {
		calls.Add(1)
		return src(sink)
	}
}

// TestSimulateOnePassPerLane: the chain pass reads a generated source
// once per lane: exactly once at Workers=1 whatever the chain count, and
// once per chain when there are at least as many workers as chains.
func TestSimulateOnePassPerLane(t *testing.T) {
	src := phasedBatchedSource(6)
	_, ivs := profile(t, src, 1000)
	cfg := testSimConfig(t)
	for _, tc := range []struct{ clusters, warmup int }{{1, 0}, {4, 1}, {4, 0}, {len(ivs), 0}} {
		plan := NewPlan(ivs, Cluster(ivs, tc.clusters, 42), tc.warmup)
		n := len(plan.Chains)
		for _, w := range []struct{ workers, passes int }{{1, 1}, {n, n}, {n + 3, n}} {
			var calls atomic.Int64
			cfg.Workers = w.workers
			if _, err := Simulate(context.Background(), countingSource(src, &calls), ivs, plan, cfg); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != int64(w.passes) {
				t.Errorf("%d clusters, warmup %d: %d chains at Workers=%d read the source %d times, want %d",
					tc.clusters, tc.warmup, n, w.workers, got, w.passes)
			}
		}
	}
}

// countSink counts the events a pass decodes before its stream stops
// it.
type countSink struct {
	mem.BatchSink
	events uint64
}

func (c *countSink) AccessBatch(b *mem.Batch) {
	c.events += uint64(b.Len())
	c.BatchSink.AccessBatch(b)
}

// TestSimulateResumesReplay: over a recorded trace whose positions the
// profile pass indexed, a lane starts each pass at the latest position
// before its first chain, so every pass decodes less than one position
// stride before a chain begins and a serial chain pass decodes no event
// twice; the measures equal those of passes from the top.
func TestSimulateResumesReplay(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	capacityBody(w, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	reader := func() *trace.BatchReader {
		br, err := trace.NewBatchReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	idx := new(trace.Index)
	p, ivs := profile(t, func(sink mem.BatchSink) error {
		_, err := reader().ReplayIndexed(sink, nil, idx)
		return err
	}, 2000)
	if len(idx.Positions) < 4 {
		t.Fatalf("%d positions over %d events", len(idx.Positions), p.Events())
	}
	type passLog struct{ start, decoded uint64 }
	var (
		mu   sync.Mutex
		log  []passLog
		from = func(i int) Source {
			pos := idx.Positions[i]
			return func(sink mem.BatchSink) error {
				br := reader()
				if err := br.Resume(pos); err != nil {
					return err
				}
				c := &countSink{BatchSink: sink}
				defer func() { // the stream ends the pass by unwinding through here
					mu.Lock()
					log = append(log, passLog{pos.Events, c.events})
					mu.Unlock()
				}()
				_, err := br.ReplayBatches(c, nil)
				return err
			}
		}
		resume = &Resume{From: from}
	)
	for _, pos := range idx.Positions {
		resume.Events = append(resume.Events, pos.Events)
	}
	src := capacitySource(6)
	cfg := testSimConfig(t)
	plan := NewPlan(ivs, Cluster(ivs, 4, 42), 1)
	want, err := Simulate(context.Background(), src, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, len(plan.Chains)} {
		log = nil
		cfg.Workers, cfg.Resume = workers, resume
		got, err := Simulate(context.Background(), src, ivs, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: resumed passes disagree with passes from the top", workers)
		}
		var decoded uint64
		resumed := 0
		for _, l := range log {
			decoded += l.decoded
			first := -1
			for ci, c := range plan.Chains {
				if c.SkipEvents >= l.start {
					first = ci
					break
				}
			}
			if first < 0 || plan.Chains[first].SkipEvents-l.start >= idx.Stride() {
				t.Fatalf("workers=%d: a pass from event %d decodes a stride or more before its first chain", workers, l.start)
			}
			if l.start > 0 {
				resumed++
			}
		}
		if resumed == 0 {
			t.Fatalf("workers=%d: no pass resumed past event 0", workers)
		}
		if workers == 1 && (len(log) < 2 || decoded > p.Events()) {
			t.Fatalf("workers=1: %d passes decoded %d events of %d", len(log), decoded, p.Events())
		}
	}
}

// TestSimulateScalarBatchParity: a chain's scalar and batched
// delivery paths must act at identical events.
func TestSimulateScalarBatchParity(t *testing.T) {
	scalar := phasedSource(5)
	batched := phasedBatchedSource(5)
	_, ivs := profile(t, scalar, 1000)
	cfg := testSimConfig(t)
	cl := Cluster(ivs, 3, 42)
	plan := NewPlan(ivs, cl, 1)
	a, err := Simulate(context.Background(), scalar, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), batched, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("scalar chain delivery disagrees with batched")
	}
}

// TestSimulatePolicyScenario: a non-default scenario's policy state
// (the numa policy's hysteresis on a topology) carries from one
// measured interval to the next exactly as in the full run.
func TestSimulatePolicyScenario(t *testing.T) {
	src := phasedBatchedSource(4)
	p, ivs := profile(t, src, 1000)
	mig, err := machine.MigrationConfigScenario(4, "numa", "cluster")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{Normal: machine.NormalConfig(), Mig: mig}
	cl := Cluster(ivs, len(ivs), 7)
	plan := NewPlan(ivs, cl, 0)
	sim, err := Simulate(context.Background(), src, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ests := Estimates(plan, sim, p.TotalInstr())
	normal, migStats := fullTee(t, src, cfg)
	actual := extract(normal, migStats)
	for i, e := range ests {
		if e.Total != float64(actual[i]) {
			t.Errorf("%s/%s: estimate %g, actual %d", e.Machine, e.Metric, e.Total, actual[i])
		}
	}
}

func TestEstimateMath(t *testing.T) {
	// Two clusters: cluster 0 sized 3 with measures {10, 20}; cluster 1
	// sized 1 fully measured at {7}.
	plan := Plan{Clusters: Clusters{Medoid: []int{0, 3}, Assign: []int{0, 0, 0, 1}, Size: []int{3, 1}}}
	nm := len(Metrics)
	vals := func(v uint64) []uint64 {
		out := make([]uint64, nm)
		for i := range out {
			out[i] = v
		}
		return out
	}
	sim := SimResult{Measures: []IntervalMeasure{
		{Interval: 0, Cluster: 0, Role: RoleMedoid, Values: vals(10)},
		{Interval: 2, Cluster: 0, Role: RoleProbe, Values: vals(20)},
		{Interval: 3, Cluster: 1, Role: RoleMedoid, Values: vals(7)},
	}}
	ests := Estimates(plan, sim, 1000)
	// Total = 3*15 + 1*7 = 52. Variance = 3^2 * (1 - 2/3) * 50 / 2 = 75
	// (s^2 of {10,20} is 50), so stderr = sqrt(75) ~ 8.66.
	e := ests[0]
	if e.Total != 52 {
		t.Fatalf("total %g, want 52", e.Total)
	}
	if e.Rate != 52.0/1000 {
		t.Fatalf("rate %g, want 0.052", e.Rate)
	}
	if e.StdErr < 8.66 || e.StdErr > 8.67 {
		t.Fatalf("stderr %g, want ~8.660", e.StdErr)
	}
	if e.Lo >= e.Total || e.Hi <= e.Total {
		t.Fatalf("bars [%g, %g] do not bracket %g", e.Lo, e.Hi, e.Total)
	}
}

func TestEstimateSEFloor(t *testing.T) {
	// One cluster of 3 with two identical measures: sample variance 0,
	// but the reconstruction extrapolates, so the floor must keep the
	// bar open.
	plan := Plan{Clusters: Clusters{Medoid: []int{0}, Assign: []int{0, 0, 0}, Size: []int{3}}}
	nm := len(Metrics)
	vals := make([]uint64, nm)
	for i := range vals {
		vals[i] = 100
	}
	sim := SimResult{Measures: []IntervalMeasure{
		{Interval: 0, Cluster: 0, Role: RoleMedoid, Values: vals},
		{Interval: 2, Cluster: 0, Role: RoleProbe, Values: vals},
	}}
	e := Estimates(plan, sim, 0)[0]
	if e.Total != 300 {
		t.Fatalf("total %g, want 300", e.Total)
	}
	if e.StdErr != relSEFloor*300 {
		t.Fatalf("stderr %g, want floored %g", e.StdErr, relSEFloor*300)
	}
}

func TestSigDist(t *testing.T) {
	if d := sigDist([]float64{1, 0.5}, []float64{0.5, 1}); d != 1 {
		t.Fatalf("L1 distance %g, want 1", d)
	}
	if d := sigDist([]float64{1, 1, 0.5}, []float64{1}); d != 1.5 {
		t.Fatalf("unequal-length distance %g, want 1.5", d)
	}
	if d := sigDist(nil, []float64{0.25}); d != 0.25 {
		t.Fatalf("nil-side distance %g, want 0.25", d)
	}
}

// TestChainSinkGenerator drives a chain off a Circular generator (the
// machine-package idiom) to cover the skip-then-measure fast path with
// an Instr-heavy stream.
func TestChainSinkGenerator(t *testing.T) {
	src := func(sink mem.BatchSink) error {
		// Fresh generator per pass: every chain job replays the stream
		// from the top.
		g := trace.NewCircular(1 << 10)
		ba := mem.NewBatcher(sink, 0)
		for i := uint64(0); i < 6000; i++ {
			ba.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
			ba.Instr(1)
		}
		ba.Flush()
		return nil
	}
	p, ivs := profile(t, src, 500)
	if len(ivs) != 12 {
		t.Fatalf("got %d intervals, want 12", len(ivs))
	}
	cfg := testSimConfig(t)
	cl := Cluster(ivs, 2, 9)
	plan := NewPlan(ivs, cl, 2)
	sim, err := Simulate(context.Background(), src, ivs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Measures) != len(plan.Measured) {
		t.Fatalf("measured %d intervals, want %d", len(sim.Measures), len(plan.Measured))
	}
	// The generator restarts per pass, so measuring everything must
	// reproduce the tee exactly (regression guard for source reuse).
	_ = p
}

// windowSink feeds the events numbered [from, end) of a stream into
// fresh machines: the cold-start reference for one interval.
type windowSink struct {
	machines  []*machine.Machine
	from, end uint64
	n         uint64
}

func (w *windowSink) Access(addr mem.Addr, kind mem.Kind) {
	if w.n >= w.from && w.n < w.end {
		for _, m := range w.machines {
			m.Access(addr, kind)
		}
	}
	w.n++
}

func (w *windowSink) Instr(n uint64) {
	if w.n >= w.from && w.n < w.end {
		for _, m := range w.machines {
			m.Instr(n)
		}
	}
	w.n++
}

func (w *windowSink) AccessBatch(b *mem.Batch) { mem.DeliverBatch(b, w) }

// TestWarmupZeroMeasuresAtSkipEdge: with no warmup, a chain that
// fast-forwards starts measuring at its skip edge itself, so the cut
// hook must fire at that edge (unlike emsim's resume edge, where no
// hook fires). The first measured interval of every such chain must
// equal a cold pair of machines fed exactly that interval's events, on
// both the per-event and the batched delivery path.
func TestWarmupZeroMeasuresAtSkipEdge(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"scalar", phasedSource(4)},
		{"batched", phasedBatchedSource(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ivs := profile(t, tc.src, 1000)
			cfg := testSimConfig(t)
			plan := NewPlan(ivs, Cluster(ivs, 3, 42), 0)
			sim, err := Simulate(context.Background(), tc.src, ivs, plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			byInterval := make(map[int]IntervalMeasure, len(sim.Measures))
			for _, m := range sim.Measures {
				byInterval[m.Interval] = m
			}
			edges := 0
			for ci, c := range plan.Chains {
				if c.SkipEvents == 0 {
					continue
				}
				first := plan.Measured[c.Measured[0]].Interval
				if first != c.FirstInterval || ivs[first].StartEvent != c.SkipEvents {
					t.Fatalf("chain %d: warmup 0 must measure interval %d at the skip edge %d, first measured is %d",
						ci, c.FirstInterval, c.SkipEvents, first)
				}
				got, ok := byInterval[first]
				if !ok {
					t.Fatalf("chain %d: interval %d at the skip edge was never measured", ci, first)
				}
				normal, err := machine.New(cfg.Normal)
				if err != nil {
					t.Fatal(err)
				}
				mig, err := machine.New(cfg.Mig)
				if err != nil {
					t.Fatal(err)
				}
				w := &windowSink{machines: []*machine.Machine{normal, mig}, from: ivs[first].StartEvent, end: ivs[first].EndEvent}
				if err := tc.src(w); err != nil {
					t.Fatal(err)
				}
				if want := extract(normal.Stats, mig.Stats); !reflect.DeepEqual(got.Values, want) {
					t.Fatalf("chain %d: interval %d measured %v, cold reference %v", ci, first, got.Values, want)
				}
				edges++
			}
			if edges == 0 {
				t.Fatal("no chain fast-forwards; the plan does not exercise the skip edge")
			}
		})
	}
}
