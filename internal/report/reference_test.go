package report

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// standaloneStats drives one fresh stream through one standalone
// machine per configuration and returns each machine's Stats: the
// reference the grouped batch drivers must reproduce.
func standaloneStats(t *testing.T, feed func(mem.BatchSink), cfgs ...machine.Config) []machine.Stats {
	t.Helper()
	out := make([]machine.Stats, len(cfgs))
	for i, cfg := range cfgs {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(m)
		out[i] = m.Stats
	}
	return out
}

// TestTable2AndSweepMatchStandaloneMachines pins Table2Batch and
// SweepWorkingSetOpt to the experiment as the paper states it: each
// configuration a machine of its own, fed its own copy of the stream.
func TestTable2AndSweepMatchStandaloneMachines(t *testing.T) {
	reg := suite.Registry()
	const budget = 1_000_000
	names := []string{"179.art", "181.mcf", "em3d"}
	var want []Table2Row
	for _, name := range names {
		feed := func(sink mem.BatchSink) {
			w, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ba := mem.NewBatcher(sink, 0)
			w.Run(ba, budget)
			ba.Flush()
		}
		st := standaloneStats(t, feed, machine.NormalConfig(), machine.MigrationConfig())
		w, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, table2Row(w.Name(), w.Suite(), st[0], st[1]))
	}
	rows, err := Table2Batch(reg, names, budget, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("Table 2 rows diverge from standalone machines:\nbatch:     %+v\nreference: %+v", rows, want)
	}

	const laps, cores = 10, 4
	sizes := []uint64{(256 << 10) >> 6, (1 << 20) >> 6, (2 << 20) >> 6, (4 << 20) >> 6}
	migCfg, err := machine.MigrationConfigFor(cores)
	if err != nil {
		t.Fatal(err)
	}
	var wantPts []SweepPoint
	for _, ws := range sizes {
		feed := func(sink mem.BatchSink) { trace.DriveBatched(trace.NewCircular(ws), sink, laps*ws, 6, 3) }
		st := standaloneStats(t, feed, machine.NormalConfig(), migCfg)
		normal, mig := st[0], st[1]
		p := SweepPoint{Lines: ws, Bytes: ws << 6}
		nRate := float64(normal.L2Misses) / float64(normal.Instructions)
		mRate := float64(mig.L2Misses) / float64(mig.Instructions)
		if nRate > 0 {
			p.Ratio = mRate / nRate
		}
		if mig.Migrations > 0 {
			p.InstrPerMigration = float64(mig.Instructions) / float64(mig.Migrations)
			p.BreakEvenPmig = (nRate - mRate) / (float64(mig.Migrations) / float64(mig.Instructions))
		}
		wantPts = append(wantPts, p)
	}
	pts, err := SweepWorkingSetOpt(sizes, laps, cores, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, wantPts) {
		t.Fatalf("sweep points diverge from standalone machines:\nbatch:     %+v\nreference: %+v", pts, wantPts)
	}
}
