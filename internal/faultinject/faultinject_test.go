package faultinject

import (
	"testing"

	"repro/internal/affinity"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// splitSink adapts a Splitter to mem.Sink so the fault injector can sit
// in front of the affinity machinery directly.
type splitSink struct{ s *affinity.Splitter }

func (ss splitSink) Access(a mem.Addr, k mem.Kind) { ss.s.Ref(mem.LineOf(a, 6), true) }
func (ss splitSink) Instr(uint64)                  {}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BitFlipRate: -0.1},
		{DropRate: 1.0},
		{DupRate: 2},
		{AddrBits: 65},
	}
	for _, cfg := range bad {
		if _, err := New(mem.NullSink{}, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil sink accepted")
	}
}

// TestDeterminism: the fault stream is a pure function of the seed —
// identical runs agree bit-for-bit, different seeds diverge.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed uint64) (Counts, machine.Stats) {
		m := machine.MustNew(machine.MigrationConfigN(4))
		s, err := New(m, Config{Seed: seed, BitFlipRate: 1e-2, DropRate: 1e-2, DupRate: 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		trace.Drive(trace.NewCircular(24<<10), s, 200_000, 6, 3)
		return s.Counts(), m.FinalStats()
	}
	c1, s1 := runOnce(5)
	c2, s2 := runOnce(5)
	if c1 != c2 || s1 != s2 {
		t.Fatalf("same seed diverged:\n%+v vs %+v\n%+v vs %+v", c1, c2, s1, s2)
	}
	if c1.BitFlips == 0 || c1.Drops == 0 || c1.Dups == 0 {
		t.Fatalf("no faults injected: %+v", c1)
	}
	c3, s3 := runOnce(6)
	if c1 == c3 && s1 == s3 {
		t.Fatal("different seeds produced identical runs")
	}
}

// mechBounds checks the saturating-arithmetic invariants of one
// mechanism: ∆ within its (AffinityBits+1)-bit range and the filter
// within its FilterBits range — under faults, saturation must clamp,
// not wrap.
func mechBounds(t *testing.T, name string, m *affinity.Mechanism) {
	t.Helper()
	cfg := m.Config()
	satDelta := affinity.SatBits(cfg.AffinityBits + 1)
	satFilter := affinity.SatBits(cfg.FilterBits)
	if d := m.Delta(); d < satDelta.Min || d > satDelta.Max {
		t.Errorf("%s: delta %d outside [%d, %d]", name, d, satDelta.Min, satDelta.Max)
	}
	if f := m.Filter(); f < satFilter.Min || f > satFilter.Max {
		t.Errorf("%s: filter %d outside [%d, %d]", name, f, satFilter.Min, satFilter.Max)
	}
}

// TestSplitterDegradesSmoothly: a 4-way splitter fed Circular and
// HalfRandom streams with 1-in-10⁴ faults must keep converging: the
// transition frequency stays bounded (the §3.4 filter damps the
// corrupted references), arithmetic stays saturated, and nothing
// panics.
func TestSplitterDegradesSmoothly(t *testing.T) {
	gens := []struct {
		name string
		gen  func() trace.Generator
	}{
		{"circular", func() trace.Generator { return trace.NewCircular(4000) }},
		{"halfrandom", func() trace.Generator { return trace.Must(trace.NewHalfRandom(4000, 300, 1)) }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			split := affinity.NewSplitter(affinity.Fig45Config(), affinity.NewUnbounded())
			s, err := New(splitSink{split}, Config{Seed: 11, BitFlipRate: 1e-4, DropRate: 1e-4, DupRate: 1e-4, AddrBits: 18})
			if err != nil {
				t.Fatal(err)
			}
			const refs = 2_000_000
			const warmup = 500_000
			var transAtWarmup uint64
			gen := g.gen()
			for i := uint64(0); i < refs; i++ {
				s.Access(mem.AddrOf(mem.Line(gen.Next()), 6), mem.Load)
				if i == warmup {
					transAtWarmup = split.Transitions()
				}
			}
			if c := s.Counts(); c.BitFlips == 0 {
				t.Fatalf("no faults injected over %d refs: %+v", refs, c)
			}
			// Post-warm-up transition frequency must stay bounded. Clean
			// runs sit near 1/2000 (Circular) and 1/2m (HalfRandom);
			// 1-in-10⁴ faults may cost a little, but an unstable splitter
			// oscillates orders of magnitude above this bound.
			trans := split.Transitions() - transAtWarmup
			if freq := float64(trans) / float64(refs-warmup); freq > 0.01 {
				t.Errorf("transition frequency %.5f under faults, want <= 0.01", freq)
			}
			for _, m := range []struct {
				n string
				m *affinity.Mechanism
			}{{"X", split.Mech(0)}, {"Y+", split.Mech(1)}, {"Y-", split.Mech(2)}} {
				mechBounds(t, m.n, m.m)
			}
		})
	}
}

// TestStuckTable: stuck-at affinity-cache entries (reads pinned at the
// saturation maximum, writes swallowed) must not destabilise the
// splitter or break the saturation invariants.
func TestStuckTable(t *testing.T) {
	inner := affinity.NewUnbounded()
	stuckOe := affinity.SatBits(16).Max // worst case: pinned at the rail
	tab, err := NewStuckTable(inner, 64, stuckOe)
	if err != nil {
		t.Fatal(err)
	}
	split := affinity.NewSplitter(affinity.Fig45Config(), tab)

	const refs = 2_000_000
	const warmup = 500_000
	var transAtWarmup uint64
	gen := trace.NewCircular(4000)
	for i := uint64(0); i < refs; i++ {
		split.Ref(mem.Line(gen.Next()), true)
		if i == warmup {
			transAtWarmup = split.Transitions()
		}
	}
	if tab.Lookups == 0 || tab.DroppedStores == 0 {
		t.Fatalf("stuck entries never exercised: %+v", tab)
	}
	trans := split.Transitions() - transAtWarmup
	if freq := float64(trans) / float64(refs-warmup); freq > 0.01 {
		t.Errorf("transition frequency %.5f with stuck entries, want <= 0.01", freq)
	}
	for _, m := range []struct {
		n string
		m *affinity.Mechanism
	}{{"X", split.Mech(0)}, {"Y+", split.Mech(1)}, {"Y-", split.Mech(2)}} {
		mechBounds(t, m.n, m.m)
	}
}

// TestMachineUnderFaults: a full machine pipeline behind the injector
// absorbs a heavily faulted stream without panicking, and the migration
// machinery keeps its counters coherent.
func TestMachineUnderFaults(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		m := machine.MustNew(machine.MigrationConfigN(cores))
		s, err := New(m, Config{Seed: 3, BitFlipRate: 1e-3, DropRate: 1e-3, DupRate: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		trace.Drive(trace.Must(trace.NewUniform(64<<10, 7)), s, 300_000, 6, 3)
		st := m.FinalStats()
		if st.Instructions == 0 || st.Loads == 0 {
			t.Fatalf("%d-core: machine saw no traffic: %+v", cores, st)
		}
		sp := m.Controller().Splitter()
		if sp.Refs() == 0 {
			t.Fatalf("%d-core: splitter saw no references", cores)
		}
		if sp.Transitions() > sp.Refs()/10 {
			t.Errorf("%d-core: %d transitions over %d refs — splitter unstable under faults",
				cores, sp.Transitions(), sp.Refs())
		}
	}
}

// TestStuckTableConstruction: the table-path argument checks — the
// previously uncovered half of the stuck-at machinery.
func TestStuckTableConstruction(t *testing.T) {
	if _, err := NewStuckTable(nil, 4, 0); err == nil {
		t.Error("nil inner table accepted")
	}
	if _, err := NewStuckTable(affinity.NewUnbounded(), 0, 0); err == nil {
		t.Error("StuckOneIn=0 accepted")
	}
	if _, err := NewStuckTable(affinity.NewUnbounded(), 1, 0); err != nil {
		t.Errorf("StuckOneIn=1 rejected: %v", err)
	}
}

// TestStuckTableSelection: stuck entries answer StuckOe and swallow
// stores while healthy entries pass through to the inner table, and
// StuckOneIn=1 sticks every line.
func TestStuckTableSelection(t *testing.T) {
	inner := affinity.NewUnbounded()
	tab, err := NewStuckTable(inner, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	var stuckLine, healthyLine mem.Line
	foundStuck, foundHealthy := false, false
	for l := mem.Line(0); l < 10_000 && !(foundStuck && foundHealthy); l++ {
		if tab.stuck(l) {
			if !foundStuck {
				stuckLine, foundStuck = l, true
			}
		} else if !foundHealthy {
			healthyLine, foundHealthy = l, true
		}
	}
	if !foundStuck || !foundHealthy {
		t.Fatalf("line population degenerate: stuck=%v healthy=%v", foundStuck, foundHealthy)
	}

	tab.Store(stuckLine, 5)
	if oe, ok := tab.Lookup(stuckLine); !ok || oe != 99 {
		t.Fatalf("stuck lookup = %d, %v; want pinned 99", oe, ok)
	}
	if tab.DroppedStores == 0 || tab.Lookups == 0 {
		t.Fatalf("stuck accounting not advanced: %+v", tab)
	}
	if _, ok := inner.Lookup(stuckLine); ok {
		t.Fatal("store to a stuck line reached the inner table")
	}

	tab.Store(healthyLine, 7)
	if oe, ok := tab.Lookup(healthyLine); !ok || oe != 7 {
		t.Fatalf("healthy lookup = %d, %v; want stored 7", oe, ok)
	}
	if oe, ok := inner.Lookup(healthyLine); !ok || oe != 7 {
		t.Fatalf("healthy store did not reach inner table: %d, %v", oe, ok)
	}

	all, err := NewStuckTable(affinity.NewUnbounded(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l := mem.Line(0); l < 128; l++ {
		if oe, ok := all.Lookup(l); !ok || oe != 3 {
			t.Fatalf("StuckOneIn=1 line %d not stuck: %d, %v", l, oe, ok)
		}
	}
	if all.Lookups != 128 {
		t.Fatalf("lookup count %d, want 128", all.Lookups)
	}
}
