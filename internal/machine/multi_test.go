package machine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/affinity"
	"repro/internal/mem"
	"repro/internal/migration"
)

// recordedFeed adapts a captured event stream to a cluster Feed,
// delivering scalar records (the feed's mem.Stage batches them).
func recordedFeed(evs []recordedEvent) Feed {
	return func(sink mem.BatchSink) error {
		for _, e := range evs {
			if e.isInstr {
				sink.Instr(e.instr)
			} else {
				sink.Access(e.addr, e.kind)
			}
		}
		return nil
	}
}

// batchedFeed delivers the same stream through the AccessBatch path.
func batchedFeed(evs []recordedEvent) Feed {
	return func(sink mem.BatchSink) error {
		ba := mem.NewBatcher(sink, 0)
		for _, e := range evs {
			if e.isInstr {
				ba.Instr(e.instr)
			} else {
				ba.Access(e.addr, e.kind)
			}
		}
		ba.Flush()
		return nil
	}
}

// TestClusterSingleProgramMatchesMachine: a 1-program cluster is a
// plain machine — same stream, same stats, bit for bit. Program 0 runs
// unshifted, so the multiprogram plumbing must be invisible.
func TestClusterSingleProgramMatchesMachine(t *testing.T) {
	evs := captureWorkload(t, "181.mcf", 300_000)

	solo, err := New(MigrationConfigN(4))
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, evs, solo)

	c, err := NewCluster(MigrationConfigN(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run([]Feed{recordedFeed(evs)}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Program(0).FinalStats(), solo.FinalStats(); got != want {
		t.Fatalf("1-program cluster diverged from plain machine:\n%+v\nvs\n%+v", got, want)
	}
}

// emptiesFeed is batchedFeed with an empty batch before every batch.
func emptiesFeed(evs []recordedEvent) Feed {
	return func(sink mem.BatchSink) error { return batchedFeed(evs)(emptyFirst{sink}) }
}

// emptyFirst delivers an empty batch ahead of every batch.
type emptyFirst struct{ mem.BatchSink }

func (s emptyFirst) AccessBatch(b *mem.Batch) {
	s.BatchSink.AccessBatch(&mem.Batch{})
	s.BatchSink.AccessBatch(b)
}

// TestClusterDeterminism: the coordinator's round robin makes a cluster
// run a pure function of its feeds — per-program stats and controller
// states are identical across repeated runs, regardless of producer
// goroutine scheduling, and identical whether the feeds deliver scalar
// records or pre-built batches, with or without empty batches between
// them (an empty batch takes no turn).
func TestClusterDeterminism(t *testing.T) {
	streams := [][]recordedEvent{
		captureWorkload(t, "mst", 150_000),
		captureWorkload(t, "181.mcf", 150_000),
		captureSynthetic(8<<10, 60_000),
	}
	run := func(mk func([]recordedEvent) Feed) []Stats {
		c, err := NewCluster(MigrationConfigN(4), len(streams))
		if err != nil {
			t.Fatal(err)
		}
		feeds := make([]Feed, len(streams))
		for i, evs := range streams {
			feeds[i] = mk(evs)
		}
		if err := c.Run(feeds); err != nil {
			t.Fatal(err)
		}
		out := make([]Stats, len(streams))
		for i := range streams {
			out[i] = c.Program(i).FinalStats()
		}
		return out
	}
	first := run(recordedFeed)
	for round := 0; round < 3; round++ {
		if again := run(recordedFeed); !reflect.DeepEqual(again, first) {
			t.Fatalf("cluster run diverged on repeat %d:\n%+v\nvs\n%+v", round, again, first)
		}
	}
	if batched := run(batchedFeed); !reflect.DeepEqual(batched, first) {
		t.Fatalf("batched feeds diverged from scalar feeds:\n%+v\nvs\n%+v", batched, first)
	}
	// Program 0 alone sends empty batches: were they turns, its real
	// batches would fall out of step with the other programs'.
	calls := 0
	gappy := run(func(evs []recordedEvent) Feed {
		if calls++; calls == 1 {
			return emptiesFeed(evs)
		}
		return batchedFeed(evs)
	})
	if !reflect.DeepEqual(gappy, first) {
		t.Fatalf("feeds with empty batches diverged from scalar feeds:\n%+v\nvs\n%+v", gappy, first)
	}
}

// TestClusterTotalsSumPerProgram: the cluster's Totals is exactly the
// field-wise sum of every program's FinalStats (AddStats aggregates
// reflectively, so a new Stats field cannot silently escape the sum).
func TestClusterTotalsSumPerProgram(t *testing.T) {
	c, err := NewCluster(MigrationConfigN(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []Feed{
		recordedFeed(captureWorkload(t, "mst", 100_000)),
		recordedFeed(captureWorkload(t, "em3d", 100_000)),
		recordedFeed(captureSynthetic(4<<10, 40_000)),
	}
	if err := c.Run(feeds); err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for i := 0; i < c.Programs(); i++ {
		sum = AddStats(sum, c.Program(i).FinalStats())
	}
	if sum != c.Totals() {
		t.Fatalf("per-program stats do not sum to totals:\nsum:    %+v\ntotals: %+v", sum, c.Totals())
	}
	if sum == (Stats{}) {
		t.Fatal("cluster consumed no events")
	}
}

// tableLines flattens an affinity table state into its populated lines.
func tableLines(t *testing.T, ts affinity.TableState) []mem.Line {
	t.Helper()
	var lines []mem.Line
	switch ts.Kind {
	case "cache":
		for i, v := range ts.Cache.Valid {
			if v {
				lines = append(lines, ts.Cache.Lines[i])
			}
		}
	case "unbounded":
		for _, e := range ts.Unbounded.Entries {
			lines = append(lines, e.Line)
		}
	default:
		t.Fatalf("unknown table state kind %q", ts.Kind)
	}
	return lines
}

// TestClusterAffinityIsolation: affinity tables are private per
// program, and ProgramOffset keeps their contents in disjoint address
// spaces — every line in program p's table decodes to an address inside
// p's range. A line outside the range would mean one program's affinity
// state was polluted by another's references.
func TestClusterAffinityIsolation(t *testing.T) {
	c, err := NewCluster(MigrationConfigN(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []Feed{
		recordedFeed(captureWorkload(t, "mst", 200_000)),
		recordedFeed(captureWorkload(t, "em3d", 200_000)),
	}
	if err := c.Run(feeds); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < c.Programs(); p++ {
		if c.Program(p).Controller() == nil {
			t.Fatalf("program %d has no Michaud controller", p)
		}
		ps := mustPolicyState(t, c.Program(p))
		lo := mem.LineOf(ProgramOffset(p), mem.DefaultLineShift)
		hi := mem.LineOf(ProgramOffset(p+1), mem.DefaultLineShift)
		lines := tableLines(t, ps.Controller.Table)
		if len(lines) == 0 {
			t.Fatalf("program %d's affinity table is empty — the workload did not exercise it", p)
		}
		for _, ln := range lines {
			if ln < lo || ln >= hi {
				t.Fatalf("program %d's affinity table holds line %#x outside its address space [%#x, %#x)",
					p, ln, lo, hi)
			}
		}
	}
}

// TestClusterSharedL2Contention: co-scheduling two cache-pressured
// programs on one L2 complex must cost at least one of them misses
// versus owning the complex alone, and instruction counts stay
// per-program exact (contention shows up in cache events only).
func TestClusterSharedL2Contention(t *testing.T) {
	evs := captureWorkload(t, "181.mcf", 300_000)

	solo, err := New(MigrationConfigN(4))
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, evs, solo)

	c, err := NewCluster(MigrationConfigN(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run([]Feed{recordedFeed(evs), recordedFeed(evs)}); err != nil {
		t.Fatal(err)
	}
	p0, p1 := c.Program(0).FinalStats(), c.Program(1).FinalStats()
	if p0.Instructions != solo.FinalStats().Instructions || p1.Instructions != p0.Instructions {
		t.Fatalf("instruction counts perturbed by co-scheduling: solo %d, p0 %d, p1 %d",
			solo.FinalStats().Instructions, p0.Instructions, p1.Instructions)
	}
	if p0.L2Misses+p1.L2Misses <= 2*solo.FinalStats().L2Misses {
		t.Fatalf("no contention visible: contended misses %d+%d vs 2x solo %d",
			p0.L2Misses, p1.L2Misses, solo.FinalStats().L2Misses)
	}
}

// TestClusterFeedErrors: a failing feed aborts nothing — the other
// programs run to completion — and every feed error comes back joined.
func TestClusterFeedErrors(t *testing.T) {
	c, err := NewCluster(MigrationConfigN(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("generator exploded")
	evs := captureWorkload(t, "mst", 100_000)
	err = c.Run([]Feed{
		func(sink mem.BatchSink) error {
			sink.Access(0x1000, mem.Load)
			return sentinel
		},
		recordedFeed(evs),
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("feed error lost: %v", err)
	}
	if got := c.Program(1).FinalStats(); got.Instructions == 0 {
		t.Fatal("healthy program did not run to completion after sibling feed failed")
	}
}

// TestClusterRejectsBadShapes: program/feed count mismatches and
// zero-program clusters fail loudly.
func TestClusterRejectsBadShapes(t *testing.T) {
	if _, err := NewCluster(MigrationConfigN(4), 0); err == nil {
		t.Fatal("0-program cluster accepted")
	}
	c, err := NewCluster(MigrationConfigN(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run([]Feed{recordedFeed(nil)}); err == nil {
		t.Fatal("1 feed for 2 programs accepted")
	}
}

// TestClusterPolicyScenario: a cluster built from a non-default
// scenario config gives every program its own policy instance — the
// numa policies accumulate state independently and no program aliases
// another's policy.
func TestClusterPolicyScenario(t *testing.T) {
	cfg, err := MigrationConfigScenario(4, "numa", "cluster")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Program(0).Policy() == c.Program(1).Policy() {
		t.Fatal("programs share one policy instance")
	}
	if err := c.Run([]Feed{
		recordedFeed(captureWorkload(t, "mst", 150_000)),
		recordedFeed(captureWorkload(t, "181.mcf", 150_000)),
	}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if ps := mustPolicyState(t, c.Program(p)); ps.Name != "numa" {
			t.Fatalf("program %d policy state named %q, want numa", p, ps.Name)
		}
	}
	if reflect.DeepEqual(mustPolicyState(t, c.Program(0)), mustPolicyState(t, c.Program(1))) {
		t.Fatal("distinct workloads produced identical policy state — state may be shared")
	}
}

func mustPolicyState(t *testing.T, m *Machine) migration.PolicyState {
	t.Helper()
	ps, err := m.Policy().PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}
