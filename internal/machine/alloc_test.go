package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/trace"
)

// steadyMachines returns warmed-up machines covering the three affinity-
// table regimes of the simulator: the 1-core baseline (no controller),
// the Table 2 configuration (bounded skewed affinity cache), and a
// migration machine on the capped open-addressed table (TableEntries=0,
// the §4.1 idealisation under its memory cap).
func steadyMachines() map[string]*Machine {
	unboundedCfg := MigrationConfigN(4)
	mc := migration.MustConfigForCores(4)
	mc.TableEntries = 0 // unbounded table, DefaultTableLimit cap
	unboundedCfg.Migration = &mc

	ms := map[string]*Machine{
		"normal":         MustNew(NormalConfig()),
		"migration":      MustNew(MigrationConfig()),
		"migration-utab": MustNew(unboundedCfg),
	}
	// Warm up well past every structure's fill point: a 1.5 MB circular
	// working set overflows one L2 (migrations happen), and three laps
	// make every affinity-table line resident.
	for _, m := range ms {
		trace.Drive(trace.NewCircular(24<<10), m, 100_000, 6, 3)
	}
	return ms
}

// driveSteady pushes one deterministic reference mix (loads, stores,
// ifetches) through the machine.
func driveSteady(m *Machine, g *trace.Circular, i uint64) {
	line := mem.Line(g.Next())
	switch i % 8 {
	case 0:
		m.Access(mem.AddrOf(line, 6), mem.IFetch)
	case 1:
		m.Access(mem.AddrOf(line, 6), mem.Store)
	default:
		m.Access(mem.AddrOf(line, 6), mem.Load)
	}
	m.Instr(3)
}

// TestAccessSteadyStateZeroAllocs is the allocation regression gate:
// once the caches and affinity structures are warm, Machine.Access and
// Machine.Instr must not allocate at all, in any configuration. It
// counts every allocation over a window of references rather than an
// average per call, so a path that allocates once in thousands of
// references fails too. A failure here means a change put an allocation
// back on the per-reference hot path.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	const refs = 50_000
	for name, m := range steadyMachines() {
		g := trace.NewCircular(24 << 10)
		var i uint64
		allocs := testing.AllocsPerRun(1, func() {
			for n := 0; n < refs; n++ {
				driveSteady(m, g, i)
				i++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations over %d steady-state references; Machine.Access, Machine.Instr and their callees must stay allocation-free (find the site with -memprofile mem.out -memprofilerate 1 and go tool pprof -list)", name, allocs, refs)
		}
	}
}

// BenchmarkAccessSteadyState measures the per-reference cost of the
// machine hot path with allocation reporting; `make bench` tracks its
// ns/ref and allocs/op in BENCH_simulator.json.
func BenchmarkAccessSteadyState(b *testing.B) {
	for name, m := range steadyMachines() {
		b.Run(name, func(b *testing.B) {
			g := trace.NewCircular(24 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				driveSteady(m, g, uint64(i))
			}
		})
	}
}
