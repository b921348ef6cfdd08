package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// TestCoreScaling exercises the §6 extension: 2, 4 and 8 cores on a
// circular working set sized so each step up in core count captures
// more of it. With a 3.5 MB working set: one 512 KB L2 thrashes, 2
// cores (1 MB) still thrash, 4 (2 MB) still miss, 8 (4 MB) hold it.
// Miss counts must be non-increasing in the core count, with a large
// drop once the aggregate covers the set.
func TestCoreScaling(t *testing.T) {
	const ws = 56 << 10 // lines = 3.5 MB
	run := func(cores int) Stats {
		var m *Machine
		if cores == 1 {
			m = MustNew(NormalConfig())
		} else {
			m = MustNew(MigrationConfigN(cores))
		}
		trace.Drive(trace.NewCircular(ws), m, 25*ws, 6, 3)
		return m.Stats
	}
	s1 := run(1)
	s2 := run(2)
	s4 := run(4)
	s8 := run(8)

	if !(s8.L2Misses < s4.L2Misses && s4.L2Misses <= s2.L2Misses && s2.L2Misses <= s1.L2Misses+s1.L2Misses/10) {
		t.Fatalf("miss counts not improving with cores: 1:%d 2:%d 4:%d 8:%d",
			s1.L2Misses, s2.L2Misses, s4.L2Misses, s8.L2Misses)
	}
	if s8.Migrations == 0 || s2.Migrations == 0 {
		t.Fatal("no migrations in scaled configurations")
	}

	// 8 cores = 4 MB aggregate > 3.5 MB working set: once the three
	// splitting levels have converged (they cascade, so it takes longer
	// than the 4-way case), the steady-state miss rate must collapse.
	// Measure the last 25 laps after a 100-lap warm-up.
	m8 := MustNew(MigrationConfigN(8))
	g := trace.NewCircular(ws)
	trace.Drive(g, m8, 100*ws, 6, 3)
	warm := m8.Stats.L2Misses
	trace.Drive(g, m8, 25*ws, 6, 3)
	steady := m8.Stats.L2Misses - warm
	baselineRate := float64(s1.L2Misses) / 25.0 // misses per lap, 1-core
	if float64(steady)/25.0 > 0.5*baselineRate {
		t.Fatalf("8-core steady-state rate %.0f misses/lap vs baseline %.0f: aggregate not captured",
			float64(steady)/25.0, baselineRate)
	}
}

// TestTwoCoreSplitsHalfMegabyte: the 2-core machine must capture a
// working set that fits 1 MB but not 512 KB.
func TestTwoCoreSplitsHalfMegabyte(t *testing.T) {
	const ws = 12 << 10 // 768 KB
	normal := MustNew(NormalConfig())
	trace.Drive(trace.NewCircular(ws), normal, 40*ws, 6, 3)
	two := MustNew(MigrationConfigN(2))
	trace.Drive(trace.NewCircular(ws), two, 40*ws, 6, 3)
	if ratio := float64(two.Stats.L2Misses) / float64(normal.Stats.L2Misses); ratio > 0.5 {
		t.Fatalf("2-core migration ineffective: miss ratio %.3f", ratio)
	}
}

// TestPointerLoadFiltering: with PointerLoadsOnly, plain-load misses
// must never trigger migrations, pointer-load misses must.
func TestPointerLoadFiltering(t *testing.T) {
	mc := migration.MustConfigForCores(4)
	mc.PointerLoadsOnly = true
	cfg := MigrationConfigN(4)
	cfg.Migration = &mc

	// Plain loads only: no migrations ever.
	m := MustNew(cfg)
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 800_000; i++ {
		m.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
	}
	if m.Stats.Migrations != 0 {
		t.Fatalf("%d migrations from plain loads under PointerLoadsOnly", m.Stats.Migrations)
	}

	// Same stream as pointer loads: migrations return.
	m2 := MustNew(cfg)
	g2 := trace.NewCircular(24 << 10)
	for i := 0; i < 800_000; i++ {
		m2.Access(mem.AddrOf(mem.Line(g2.Next()), 6), mem.PtrLoad)
	}
	if m2.Stats.Migrations == 0 {
		t.Fatal("no migrations from pointer loads under PointerLoadsOnly")
	}
}

// TestPrefetcherOnSequentialStream: a sequential scan larger than the L2
// must be largely covered by the stream prefetcher (misses drop, most
// prefetches useful).
func TestPrefetcherOnSequentialStream(t *testing.T) {
	const ws = 24 << 10
	base := MustNew(NormalConfig())
	trace.Drive(trace.NewCircular(ws), base, 10*ws, 6, 3)

	pfc := prefetch.Default()
	cfg := NormalConfig()
	cfg.Prefetch = &pfc
	pf := MustNew(cfg)
	trace.Drive(trace.NewCircular(ws), pf, 10*ws, 6, 3)

	if pf.Stats.PrefetchIssued == 0 {
		t.Fatal("prefetcher idle on a sequential stream")
	}
	useful := float64(pf.Stats.PrefetchUseful) / float64(pf.Stats.PrefetchIssued)
	if useful < 0.8 {
		t.Fatalf("prefetch usefulness %.2f on a sequential stream, want > 0.8", useful)
	}
	if pf.Stats.L2Misses*2 > base.Stats.L2Misses {
		t.Fatalf("prefetching removed too few misses: %d vs %d", pf.Stats.L2Misses, base.Stats.L2Misses)
	}
}

// TestPrefetcherUselessOnRandomStream: on uniform random misses the
// prefetcher must stay quiet (few trained streams).
func TestPrefetcherUselessOnRandomStream(t *testing.T) {
	pfc := prefetch.Default()
	cfg := NormalConfig()
	cfg.Prefetch = &pfc
	m := MustNew(cfg)
	trace.Drive(trace.Must(trace.NewUniform(64<<10, 3)), m, 400_000, 6, 3)
	frac := float64(m.Stats.PrefetchIssued) / float64(m.Stats.L2Misses+1)
	if frac > 0.2 {
		t.Fatalf("prefetcher fired on %.2f of random misses", frac)
	}
}

// TestPrefetchPlusMigration is the §6 interaction: on a circular
// working set both help; combined they must not be worse than the best
// single technique by any meaningful margin.
func TestPrefetchPlusMigration(t *testing.T) {
	const ws = 24 << 10
	run := func(migON, pfON bool) uint64 {
		var cfg Config
		if migON {
			cfg = MigrationConfig()
		} else {
			cfg = NormalConfig()
		}
		if pfON {
			pfc := prefetch.Default()
			cfg.Prefetch = &pfc
		}
		m := MustNew(cfg)
		trace.Drive(trace.NewCircular(ws), m, 20*ws, 6, 3)
		return m.Stats.L2Misses
	}
	neither := run(false, false)
	onlyMig := run(true, false)
	onlyPf := run(false, true)
	both := run(true, true)
	best := onlyMig
	if onlyPf < best {
		best = onlyPf
	}
	if both > best*3/2+1000 {
		t.Fatalf("combining hurts: neither=%d mig=%d pf=%d both=%d", neither, onlyMig, onlyPf, both)
	}
	if onlyMig >= neither || onlyPf >= neither {
		t.Fatalf("techniques ineffective alone: neither=%d mig=%d pf=%d", neither, onlyMig, onlyPf)
	}
}

// TestMismatchedWaysErrors documents the cores/controller contract:
// a machine whose core count disagrees with the controller's way count
// is a configuration error, reported rather than panicked.
func TestMismatchedWaysErrors(t *testing.T) {
	mc := migration.MustConfigForCores(8)
	if _, err := New(Config{Cores: 4, LineShift: 6, IL1: PaperL1(), DL1: PaperL1(), L2: PaperL2(), Migration: &mc}); err == nil {
		t.Fatal("no error on cores/ways mismatch")
	}
}

// TestBroadcastThreshold exercises §6's update-bus optimisation: gating
// register broadcasts on filter proximity must remove the bulk of the
// bus traffic on a migration-friendly workload while charging the
// register-spill on each migration.
func TestBroadcastThreshold(t *testing.T) {
	run := func(threshold float64) Stats {
		cfg := MigrationConfig()
		cfg.BroadcastThreshold = threshold
		m := MustNew(cfg)
		trace.Drive(trace.NewCircular(24<<10), m, 1_200_000, 6, 3)
		return m.Stats
	}
	full := run(0)
	gated := run(0.05)

	if gated.SuppressedRegBytes == 0 {
		t.Fatal("gating suppressed nothing")
	}
	// Miss/migration behaviour is unchanged — the gate only affects bus
	// accounting.
	if gated.L2Misses != full.L2Misses || gated.Migrations != full.Migrations {
		t.Fatalf("gating changed simulation behaviour: misses %d vs %d, migrations %d vs %d",
			gated.L2Misses, full.L2Misses, gated.Migrations, full.Migrations)
	}
	// The gated bus must carry far less than the full broadcast.
	if gated.UpdateBusBytes*2 > full.UpdateBusBytes {
		t.Fatalf("gating ineffective: %d vs %d bus bytes", gated.UpdateBusBytes, full.UpdateBusBytes)
	}
	// Conservation: suppressed + carried ≈ full + spills.
	total := gated.UpdateBusBytes + gated.SuppressedRegBytes
	want := full.UpdateBusBytes + gated.Migrations*RegisterSpillBytes
	if total != want {
		t.Fatalf("bus byte conservation: %d vs %d", total, want)
	}
}
