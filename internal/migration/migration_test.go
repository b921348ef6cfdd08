package migration

import (
	"math"
	"testing"

	"repro/internal/affinity"
	"repro/internal/mem"
	"repro/internal/trace"
)

// mustController builds the named registered policy as the controller
// it is (michaud or numa).
func mustController(t *testing.T, name string, cfg Config, topo *Topology) *Controller {
	t.Helper()
	p, err := NewPolicy(name, cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*Controller)
}

// TestControllerL2Filtering: with L2 filtering (default), OnRequest must
// never migrate; migrations happen only through OnL2Miss.
func TestControllerL2Filtering(t *testing.T) {
	c := mustController(t, PolicyMichaud, Table2Config(), nil)
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 200_000; i++ {
		if _, migrated := c.OnRequest(mem.Line(g.Next())); migrated {
			t.Fatal("OnRequest migrated despite L2 filtering")
		}
	}
	if c.Migrations != 0 {
		t.Fatal("migrations counted without OnL2Miss")
	}
	// Now declare every request an L2 miss: migrations must appear on a
	// splittable stream.
	for i := 0; i < 400_000; i++ {
		c.OnRequest(mem.Line(g.Next()))
		c.OnL2Miss(false)
	}
	if c.Migrations == 0 {
		t.Fatal("no migrations on a splittable stream")
	}
	if c.Active() < 0 || c.Active() > 3 {
		t.Fatalf("active core %d out of range", c.Active())
	}
	if c.Requests == 0 || c.L2MissUpdates == 0 {
		t.Fatal("counters not maintained")
	}
}

// TestControllerNoFiltering: with NoL2Filtering, OnRequest itself can
// migrate.
func TestControllerNoFiltering(t *testing.T) {
	cfg := Table2Config()
	cfg.NoL2Filtering = true
	c := mustController(t, PolicyMichaud, cfg, nil)
	g := trace.NewCircular(24 << 10)
	migrated := false
	for i := 0; i < 600_000; i++ {
		if _, m := c.OnRequest(mem.Line(g.Next())); m {
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("NoL2Filtering controller never migrated on a splittable stream")
	}
}

// TestControllerBoundedVsUnboundedTable: the bounded affinity cache must
// be reachable through the accessor and actually bounded.
func TestControllerBoundedVsUnboundedTable(t *testing.T) {
	bounded := mustController(t, PolicyMichaud, Table2Config(), nil)
	if bounded.AffinityCache() == nil {
		t.Fatal("Table2 controller should expose its affinity cache")
	}
	if bounded.AffinityCache().Entries() != 8192 {
		t.Fatalf("entries = %d", bounded.AffinityCache().Entries())
	}
	unbounded := mustController(t, PolicyMichaud, Config{Split: affinity.Fig45Config()}, nil)
	if unbounded.AffinityCache() != nil {
		t.Fatal("unbounded controller should report nil affinity cache")
	}
}

// TestMissesRemovedPerMigration reproduces the paper's mcf arithmetic:
// a migration every 4500 instructions, miss intervals 24 → 36, gives
// 4500/24 − 4500/36 ≈ 60 misses removed per migration.
func TestMissesRemovedPerMigration(t *testing.T) {
	const instr = 1_000_000_000
	normal := Outcome{Instructions: instr, L2Misses: instr / 24}
	migrated := Outcome{Instructions: instr, L2Misses: instr / 36, Migrations: instr / 4500}
	got, ok := MissesRemovedPerMigration(normal, migrated)
	if !ok {
		t.Fatal("undefined")
	}
	want := 4500.0/24 - 4500.0/36
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("break-even = %.2f, want %.2f (the paper's ≈60)", got, want)
	}
	// No migrations → undefined.
	if _, ok := MissesRemovedPerMigration(normal, Outcome{Instructions: instr, L2Misses: 1}); ok {
		t.Fatal("break-even defined without migrations")
	}
}

// TestTimeModelSpeedup: at equal instruction counts and uniform cost,
// the time model breaks even exactly at the rate-based analysis's
// MissesRemovedPerMigration: with Pmig there, speedup must be 1; below
// it > 1; above it < 1.
func TestTimeModelSpeedup(t *testing.T) {
	const instr = 1_000_000
	normal := Outcome{Instructions: instr, L2Misses: 50_000}
	migrated := Outcome{Instructions: instr, L2Misses: 10_000, Migrations: 800}
	moves := float64(migrated.Migrations)
	tm := DefaultTimeModel()
	be, ok := MissesRemovedPerMigration(normal, migrated)
	if !ok {
		t.Fatal("break-even undefined")
	}
	if s := tm.Speedup(normal, migrated, be, moves); math.Abs(s-1) > 1e-9 {
		t.Fatalf("speedup at break-even = %f, want 1", s)
	}
	if s := tm.Speedup(normal, migrated, be/2, moves); s <= 1 {
		t.Fatalf("speedup below break-even = %f, want > 1", s)
	}
	if s := tm.Speedup(normal, migrated, be*2, moves); s >= 1 {
		t.Fatalf("speedup above break-even = %f, want < 1", s)
	}
}

// TestTimeModelCycles: the arithmetic itself.
func TestTimeModelCycles(t *testing.T) {
	tm := TimeModel{CPI0: 1, L3Penalty: 20}
	o := Outcome{Instructions: 1000, L2Misses: 10, Migrations: 2}
	if c := tm.Cycles(o, 0, 0); c != 1000+200 {
		t.Fatalf("cycles = %f", c)
	}
	if c := tm.Cycles(o, 5, float64(o.Migrations)); c != 1000+200+2*5*20 {
		t.Fatalf("cycles with pmig = %f", c)
	}
	if c := tm.Cycles(o, 5, 7); c != 1000+200+7*5*20 {
		t.Fatalf("cycles with pmig and a weighted cost of 7 = %f", c)
	}
}
