package report

import (
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Table1Row is one line of the paper's Table 1: instruction count and
// 16 KB fully-associative IL1/DL1 miss counts.
type Table1Row struct {
	Name     string
	Suite    string
	Instr    uint64
	IL1Miss  uint64
	DL1Miss  uint64
	IFetches uint64
	DataRefs uint64
}

// table1Sink filters the stream through the §4.1 16 KB fully-associative
// LRU L1 pair and counts misses.
type table1Sink struct {
	il1, dl1 *cache.FullyAssoc
	row      *Table1Row
	shift    uint
}

func (t *table1Sink) Access(addr mem.Addr, kind mem.Kind) {
	line := mem.LineOf(addr, t.shift)
	if kind == mem.IFetch {
		t.row.IFetches++
		if !t.il1.Ref(line) {
			t.row.IL1Miss++
		}
		return
	}
	t.row.DataRefs++
	if !t.dl1.Ref(line) {
		t.row.DL1Miss++
	}
}

func (t *table1Sink) Instr(n uint64) { t.row.Instr += n }

// Table1 runs one workload through the Table 1 measurement.
func Table1(w workloads.Workload, budget uint64) Table1Row {
	row := Table1Row{Name: w.Name(), Suite: w.Suite()}
	lines := (16 << 10) >> mem.DefaultLineShift
	s := &table1Sink{
		il1:   cache.NewFullyAssoc(lines),
		dl1:   cache.NewFullyAssoc(lines),
		row:   &row,
		shift: mem.DefaultLineShift,
	}
	w.Run(s, budget)
	return row
}

// Table2Row is one line of the paper's Table 2: instructions per event
// for L1 misses, baseline L2 misses, migration-mode L2 misses ("4xL2"),
// the miss ratio, and migrations.
type Table2Row struct {
	Name  string
	Suite string

	Normal   machine.Stats
	Migrated machine.Stats

	// Derived (per-instruction metrics, paper's presentation).
	InstrPerL1Miss   float64
	InstrPerL2Miss   float64
	InstrPer4xL2Miss float64
	Ratio            float64 // 4xL2 misses / baseline L2 misses (rate ratio; <1 = win)
	InstrPerMig      float64
	// BreakEvenPmig is §4.2's analysis: migration wins while
	// Pmig < BreakEvenPmig (only meaningful when Ratio < 1).
	BreakEvenPmig float64
	HasMigrations bool
}

// table2Row derives one Table 2 line from the two machines' raw stats.
func table2Row(name, suite string, normal, mig machine.Stats) Table2Row {
	row := Table2Row{
		Name:     name,
		Suite:    suite,
		Normal:   normal,
		Migrated: mig,
	}
	if v, ok := mig.PerInstr(mig.L1Misses()); ok {
		row.InstrPerL1Miss = v
	}
	if v, ok := normal.PerInstr(normal.L2Misses); ok {
		row.InstrPerL2Miss = v
	}
	if v, ok := mig.PerInstr(mig.L2Misses); ok {
		row.InstrPer4xL2Miss = v
	}
	if v, ok := mig.PerInstr(mig.Migrations); ok {
		row.InstrPerMig = v
		row.HasMigrations = true
	}
	// ratio of miss rates = (4xL2 misses/instr) / (L2 misses/instr)
	nRate := float64(normal.L2Misses) / float64(normal.Instructions)
	mRate := float64(mig.L2Misses) / float64(mig.Instructions)
	if nRate > 0 {
		row.Ratio = mRate / nRate
	}
	if be, ok := migration.MissesRemovedPerMigration(normal.Outcome(), mig.Outcome()); ok {
		row.BreakEvenPmig = be
	}
	return row
}

// FormatTable1 renders rows in the paper's Table 1 layout (counts in
// millions).
func FormatTable1(rows []Table1Row) string {
	t := stats.NewTable("benchmark", "instr(M)", "IL1 miss(M)", "DL1 miss(M)")
	for _, r := range rows {
		t.AddRow(r.Name, stats.Millions(r.Instr), stats.Millions(r.IL1Miss), stats.Millions(r.DL1Miss))
	}
	return t.String()
}

// FormatTable2 renders rows in the paper's Table 2 layout
// (instructions per event; higher is better; ratio < 1 means migration
// removed misses).
func FormatTable2(rows []Table2Row) string {
	t := stats.NewTable("benchmark", "L1 miss", "L2 miss", "4xL2 miss", "ratio", "migration", "breakeven Pmig")
	for _, r := range rows {
		mig := "-"
		be := "-"
		if r.HasMigrations {
			mig = stats.SciNotation(r.InstrPerMig)
			be = stats.Ratio(r.BreakEvenPmig, 1)
		}
		t.AddRow(r.Name,
			stats.PerEvent(r.Migrated.Instructions, r.Migrated.L1Misses()),
			stats.PerEvent(r.Normal.Instructions, r.Normal.L2Misses),
			stats.PerEvent(r.Migrated.Instructions, r.Migrated.L2Misses),
			stats.Ratio(r.Ratio, 1),
			mig,
			be,
		)
	}
	return t.String()
}
