// Package repro's root bench harness: one benchmark per table and figure
// of the paper, plus ablation benches for the design choices called out
// in DESIGN.md §5. Each benchmark regenerates its artefact at a scale
// proportional to b.N and reports the headline metric through b.ReportMetric,
// so `go test -bench=. -benchmem` reproduces every experiment:
//
//	BenchmarkFig3/*      — affinity landscapes on Circular / HalfRandom
//	BenchmarkFig45/*     — LRU-stack profiles p1 vs p4 + transition freq
//	BenchmarkTable1/*    — benchmark inventory (L1 miss rates)
//	BenchmarkTable2/*    — the 4-core machine experiment (miss ratio)
//	BenchmarkAblation*   — skewed L2, L2 filtering, sampling, window kind
//
// Full-scale regeneration (longer runs, formatted tables) lives in the
// cmd/ binaries; see EXPERIMENTS.md.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// fig45Budget and table budgets are per-iteration instruction budgets:
// big enough for the affinity machinery to settle, small enough to keep
// `go test -bench=.` under control. The cmd/ binaries run full scale.
const (
	fig45Budget  = 8_000_000
	table1Budget = 8_000_000
	table2Budget = 12_000_000
)

// BenchmarkFig3 regenerates Figure 3's panels and reports the transition
// frequency of the final checkpoint (paper: 1/2000 on Circular, 1/300 on
// HalfRandom(300)).
func BenchmarkFig3(b *testing.B) {
	for _, behavior := range []string{"circular", "halfrandom"} {
		b.Run(behavior, func(b *testing.B) {
			var freq float64
			for i := 0; i < b.N; i++ {
				cfg := report.DefaultFig3Config()
				res, err := report.Fig3(behavior, cfg)
				if err != nil {
					b.Fatal(err)
				}
				freq = res[len(res)-1].TransFreq
			}
			b.ReportMetric(freq, "trans/ref")
		})
	}
}

// BenchmarkFig45 regenerates the Figures 4/5 panel for each benchmark
// and reports the splittability gap max(p1−p4) and the transition
// frequency.
func BenchmarkFig45(b *testing.B) {
	reg := suite.Registry()
	for _, name := range reg.Names() {
		b.Run(name, func(b *testing.B) {
			var gap, freq float64
			for i := 0; i < b.N; i++ {
				w, err := reg.New(name)
				if err != nil {
					b.Fatal(err)
				}
				res := report.LRUProfileCapped(w, fig45Budget, mem.DefaultLineShift, 0)
				gap, _ = res.Splittable()
				freq = res.TransFreq
			}
			b.ReportMetric(gap, "p1-p4_gap")
			b.ReportMetric(freq, "trans/ref")
		})
	}
}

// BenchmarkTable1 regenerates Table 1's rows, reporting instructions per
// DL1 miss.
func BenchmarkTable1(b *testing.B) {
	reg := suite.Registry()
	for _, name := range reg.Names() {
		b.Run(name, func(b *testing.B) {
			var row report.Table1Row
			for i := 0; i < b.N; i++ {
				w, err := reg.New(name)
				if err != nil {
					b.Fatal(err)
				}
				row = report.Table1(w, table1Budget)
			}
			if row.DL1Miss > 0 {
				b.ReportMetric(float64(row.Instr)/float64(row.DL1Miss), "instr/DL1miss")
			}
			if row.IL1Miss > 0 {
				b.ReportMetric(float64(row.Instr)/float64(row.IL1Miss), "instr/IL1miss")
			}
		})
	}
}

// BenchmarkTable2 regenerates Table 2's rows, reporting the headline
// miss ratio (4xL2 misses / baseline L2 misses; < 1 means execution
// migration removed misses) and instructions per migration.
func BenchmarkTable2(b *testing.B) {
	reg := suite.Registry()
	for _, name := range reg.Names() {
		b.Run(name, func(b *testing.B) {
			var row report.Table2Row
			for i := 0; i < b.N; i++ {
				rows, err := report.Table2Batch(reg, []string{name}, table2Budget, report.RunOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.Ratio, "missratio")
			if row.HasMigrations {
				b.ReportMetric(row.InstrPerMig, "instr/mig")
			}
		})
	}
}

// BenchmarkMcfBreakEven regenerates the §4.2 headline analysis: on
// 181.mcf, migration wins while Pmig < ~60.
func BenchmarkMcfBreakEven(b *testing.B) {
	reg := suite.Registry()
	var be float64
	for i := 0; i < b.N; i++ {
		rows, err := report.Table2Batch(reg, []string{"181.mcf"}, table2Budget, report.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		be = rows[0].BreakEvenPmig
	}
	b.ReportMetric(be, "breakeven_Pmig")
}

// runMigrationMachine drives a 1.5MB circular working set through the
// migration machine under the given controller config and returns the
// stats (the ablation workhorse).
func runMigrationMachine(mc migration.Config, refs uint64) machine.Stats {
	cfg := machine.MigrationConfig()
	cfg.Migration = &mc
	m := machine.MustNew(cfg)
	trace.Drive(trace.NewCircular(24<<10), m, refs, 6, 3)
	return m.Stats
}

// BenchmarkAblationL2Filtering compares migrations with and without L2
// filtering (§3.4). Filtering exists to protect workloads that gain
// nothing from migrating: on a random working set that fits one L2 it
// must keep migrations near zero, while without it the filter flips
// freely and each flip costs a pointless migration (the paper's
// vpr/crafty scenario). On a splittable circular set both settings
// perform well.
func BenchmarkAblationL2Filtering(b *testing.B) {
	gens := map[string]func() trace.Generator{
		// 256 KB random working set: fits one 512 KB L2.
		"random-fits-L2": func() trace.Generator { return trace.Must(trace.NewUniform(4<<10, 5)) },
		// 1.5 MB circular working set: the migration win case.
		"circular-1.5MB": func() trace.Generator { return trace.NewCircular(24 << 10) },
	}
	for wname, mk := range gens {
		for _, filtering := range []bool{true, false} {
			name := wname + "/filter-on"
			if !filtering {
				name = wname + "/filter-off"
			}
			b.Run(name, func(b *testing.B) {
				var s machine.Stats
				for i := 0; i < b.N; i++ {
					mc := migration.Table2Config()
					mc.NoL2Filtering = !filtering
					cfg := machine.MigrationConfig()
					cfg.Migration = &mc
					m := machine.MustNew(cfg)
					trace.Drive(mk(), m, 1_200_000, 6, 3)
					s = m.Stats
				}
				b.ReportMetric(float64(s.Migrations), "migrations")
				b.ReportMetric(float64(s.L2Misses), "L2misses")
			})
		}
	}
}

// BenchmarkAblationSampling sweeps the working-set sampling ratio
// (§3.5): 100% (no sampling), the paper's 25%, and 13%.
func BenchmarkAblationSampling(b *testing.B) {
	for _, limit := range []uint32{31, 8, 4} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			var s machine.Stats
			for i := 0; i < b.N; i++ {
				mc := migration.Table2Config()
				mc.Split.SampleLimit = limit
				s = runMigrationMachine(mc, 1_200_000)
			}
			b.ReportMetric(float64(s.L2Misses), "L2misses")
			b.ReportMetric(float64(s.Migrations), "migrations")
		})
	}
}

// BenchmarkAblationFilterBits sweeps the transition-filter width on the
// machine (§3.4's penalty/delay trade-off).
func BenchmarkAblationFilterBits(b *testing.B) {
	for _, bits := range []uint{16, 18, 20} {
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			var s machine.Stats
			for i := 0; i < b.N; i++ {
				mc := migration.Table2Config()
				mc.Split.Root.FilterBits = bits
				s = runMigrationMachine(mc, 1_200_000)
			}
			b.ReportMetric(float64(s.Migrations), "migrations")
			b.ReportMetric(float64(s.L2Misses), "L2misses")
		})
	}
}

// BenchmarkAblationSkewedL2 compares the paper's skewed-associative L2
// against a plain set-associative one under the baseline machine.
func BenchmarkAblationSkewedL2(b *testing.B) {
	for _, skewed := range []bool{true, false} {
		name := "skewed"
		if !skewed {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				cfg := machine.NormalConfig()
				cfg.L2 = cache.GeometryFor(512<<10, 6, 4, skewed)
				m := machine.MustNew(cfg)
				// Power-of-two strided working set: the skew's target.
				trace.Drive(trace.Must(trace.NewStrided(64<<10, 2048)), m, 600_000, 6, 3)
				misses = m.Stats.L2Misses
			}
			b.ReportMetric(float64(misses), "L2misses")
		})
	}
}

// BenchmarkAblationWindowKind compares the hardware FIFO R-window
// (duplicates allowed) against the idealised exact-LRU window the paper
// relaxes away (§3.2): split quality on Circular should be equivalent.
func BenchmarkAblationWindowKind(b *testing.B) {
	for _, exact := range []bool{false, true} {
		name := "fifo"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var freq float64
			for i := 0; i < b.N; i++ {
				s := affinity.NewSplitter(affinity.SplitConfig{
					Ways: 2,
					Root: affinity.MechConfig{
						WindowSize: 100, AffinityBits: 16, FilterBits: 20, ExactWindow: exact,
					},
					SampleLimit: 31,
				}, affinity.NewUnbounded())
				g := trace.NewCircular(4000)
				for j := 0; j < 600_000; j++ {
					s.Ref(mem.Line(g.Next()), true)
				}
				freq = float64(s.Transitions()) / float64(s.Refs())
			}
			b.ReportMetric(freq, "trans/ref")
		})
	}
}

// BenchmarkAffinityRef measures the raw cost of one affinity-mechanism
// update (the hot path of the whole simulator).
func BenchmarkAffinityRef(b *testing.B) {
	m := affinity.NewMechanism(
		affinity.MechConfig{WindowSize: 128, AffinityBits: 16, FilterBits: 18},
		affinity.NewCache(8192, 4), // the paper's §4.2 affinity cache
	)
	g := trace.NewCircular(24 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ref(mem.Line(g.Next()), false)
	}
}

// BenchmarkMachineAccess measures the end-to-end cost of one reference
// through the 4-core machine, delivered one record at a time (the
// Access forward into AccessBatch). The gomaxprocs metric
// rides along so recorded ns/op numbers carry the scheduler width they
// were measured under (cross-host comparability).
func BenchmarkMachineAccess(b *testing.B) {
	m := machine.MustNew(machine.MigrationConfig())
	g := trace.NewCircular(24 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkMachineAccessBatch is the columnar counterpart: the same
// reference stream through Machine.AccessBatch in DefaultBatchLen
// batches, with the batch length pinned into the metrics.
func BenchmarkMachineAccessBatch(b *testing.B) {
	m := machine.MustNew(machine.MigrationConfig())
	g := trace.NewCircular(24 << 10)
	batch := mem.NewBatch(0)
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch.Reset()
		for !batch.Full() && done < b.N {
			batch.Append(mem.AddrOf(mem.Line(g.Next()), 6), mem.Load)
			done++
		}
		m.AccessBatch(batch)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(mem.DefaultBatchLen), "batch_len")
}

// BenchmarkExtensionCoreScaling sweeps the §6 core-count extension on a
// 3MB circular working set: the miss count must fall as the aggregate L2
// grows toward the working set.
func BenchmarkExtensionCoreScaling(b *testing.B) {
	const ws = 48 << 10
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			var s machine.Stats
			for i := 0; i < b.N; i++ {
				var cfg machine.Config
				if cores == 1 {
					cfg = machine.NormalConfig()
				} else {
					cfg = machine.MigrationConfigN(cores)
				}
				m := machine.MustNew(cfg)
				trace.Drive(trace.NewCircular(ws), m, 40*ws, 6, 3)
				s = m.Stats
			}
			b.ReportMetric(float64(s.L2Misses), "L2misses")
			b.ReportMetric(float64(s.Migrations), "migrations")
		})
	}
}

// BenchmarkExtensionPrefetchInteraction runs the §6 prefetch×migration
// grid on a circular working set.
func BenchmarkExtensionPrefetchInteraction(b *testing.B) {
	const ws = 24 << 10
	for _, mig := range []bool{false, true} {
		for _, pf := range []bool{false, true} {
			b.Run(fmt.Sprintf("mig=%v/pf=%v", mig, pf), func(b *testing.B) {
				var s machine.Stats
				for i := 0; i < b.N; i++ {
					var cfg machine.Config
					if mig {
						cfg = machine.MigrationConfig()
					} else {
						cfg = machine.NormalConfig()
					}
					if pf {
						pfc := prefetch.Default()
						cfg.Prefetch = &pfc
					}
					m := machine.MustNew(cfg)
					trace.Drive(trace.NewCircular(ws), m, 20*ws, 6, 3)
					s = m.Stats
				}
				b.ReportMetric(float64(s.L2Misses), "L2misses")
			})
		}
	}
}

// BenchmarkExtensionPointerLoadFiltering compares the §6 pointer-load
// restriction on a pointer-heavy workload (health): migrations must
// persist under the restriction since health's misses come from list
// walks.
func BenchmarkExtensionPointerLoadFiltering(b *testing.B) {
	reg := suite.Registry()
	for _, ptrOnly := range []bool{false, true} {
		name := "all-requests"
		if ptrOnly {
			name = "pointer-loads-only"
		}
		b.Run(name, func(b *testing.B) {
			var s machine.Stats
			for i := 0; i < b.N; i++ {
				mc := migration.MustConfigForCores(4)
				mc.PointerLoadsOnly = ptrOnly
				cfg := machine.MigrationConfigN(4)
				cfg.Migration = &mc
				m := machine.MustNew(cfg)
				w, err := reg.New("health")
				if err != nil {
					b.Fatal(err)
				}
				w.Run(m, table2Budget)
				s = m.Stats
			}
			b.ReportMetric(float64(s.L2Misses), "L2misses")
			b.ReportMetric(float64(s.Migrations), "migrations")
		})
	}
}

// BenchmarkSweepWorkingSet regenerates the crossover curve behind
// Table 2 on synthetic circular working sets, reporting the miss ratio
// at the aggregate-fits point (1 MB).
func BenchmarkSweepWorkingSet(b *testing.B) {
	var winRatio float64
	for i := 0; i < b.N; i++ {
		points, err := report.SweepWorkingSetOpt(report.DefaultSweepSizes(), 20, 4, report.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Bytes == 1<<20 {
				winRatio = p.Ratio
			}
		}
	}
	b.ReportMetric(winRatio, "ratio@1MB")
}
