package report

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/trace"
)

// SweepPoint is one point of the working-set-size sweep: the paper's
// central trade, measured on the canonical circular workload.
type SweepPoint struct {
	// Lines is the working-set size in cache lines.
	Lines uint64
	// Bytes is the same in bytes.
	Bytes uint64
	// Ratio is 4xL2-miss rate / 1-core L2-miss rate (< 1: migration
	// removed misses).
	Ratio float64
	// InstrPerMigration is the migration interval (0 when none).
	InstrPerMigration float64
	// BreakEvenPmig is the §2.4 break-even (0 when undefined).
	BreakEvenPmig float64
}

// SweepWorkingSetOpt runs a circular working set of each given size (in
// lines) through the 1-core and migration machines and reports the
// trade at each point — the crossover structure behind Table 2: no
// effect while the set fits one L2, a win while it fits the aggregate,
// suppression beyond. Each point is one grouped pass of its circular
// stream through both machines, and the points fan out across the
// worker pool; results are in sizes order and byte-identical for any
// worker count.
func SweepWorkingSetOpt(sizes []uint64, laps uint64, cores int, opt RunOptions) ([]SweepPoint, error) {
	migCfg, err := machine.MigrationConfigFor(cores)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(sizes))
	for i, ws := range sizes {
		labels[i] = fmt.Sprintf("%dK", ws<<6>>10)
	}
	circular := func(i int) (source, error) {
		ws := sizes[i]
		return source{feed: func(sink mem.BatchSink) error {
			trace.DriveBatched(trace.NewCircular(ws), sink, laps*ws, 6, 3)
			return nil
		}}, nil
	}
	passes, err := runGroups(labels, []machine.Config{machine.NormalConfig(), migCfg}, 0, circular, opt)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(passes))
	for i, p := range passes {
		points[i] = sweepPoint(sizes[i], p.ms[0].Stats, p.ms[1].Stats)
	}
	return points, nil
}

// sweepPoint derives one working-set size's trade from the two
// machines' stats.
func sweepPoint(ws uint64, normal, mig machine.Stats) SweepPoint {
	p := SweepPoint{Lines: ws, Bytes: ws << 6}
	nRate := float64(normal.L2Misses) / float64(normal.Instructions)
	mRate := float64(mig.L2Misses) / float64(mig.Instructions)
	if nRate > 0 {
		p.Ratio = mRate / nRate
	}
	if mig.Migrations > 0 {
		p.InstrPerMigration = float64(mig.Instructions) / float64(mig.Migrations)
	}
	if be, ok := migration.MissesRemovedPerMigration(normal.Outcome(), mig.Outcome()); ok {
		p.BreakEvenPmig = be
	}
	return p
}

// DefaultSweepLaps is the laps per sweep point when none are given.
const DefaultSweepLaps = 40

// DefaultSweepSizes returns working-set sizes from 256 KB to 8 MB
// (in lines), bracketing one L2, the 4-core aggregate, and beyond.
func DefaultSweepSizes() []uint64 {
	var sizes []uint64
	for bytes := uint64(256 << 10); bytes <= 8<<20; bytes *= 2 {
		sizes = append(sizes, bytes>>6)
	}
	return sizes
}

// FormatSweep renders the sweep as a text table.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %8s %12s %14s\n", "working set", "ratio", "instr/mig", "breakeven Pmig")
	for _, p := range points {
		mig := "-"
		be := "-"
		if p.InstrPerMigration > 0 {
			mig = fmt.Sprintf("%.0f", p.InstrPerMigration)
			be = fmt.Sprintf("%.1f", p.BreakEvenPmig)
		}
		fmt.Fprintf(&b, "%9dK %8.3f %12s %14s\n", p.Bytes>>10, p.Ratio, mig, be)
	}
	return b.String()
}
