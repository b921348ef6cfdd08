package report

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/runner"
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
// suppression beyond. Points fan out across the worker pool. Both
// machine configurations are built and validated exactly once and
// threaded through every point's job (each job constructs its own
// Machines from the shared configs — machines are mutable, configs are
// not); results are in sizes order and byte-identical for any worker
// count.
func SweepWorkingSetOpt(sizes []uint64, laps uint64, cores int, opt RunOptions) ([]SweepPoint, error) {
	normalCfg := machine.NormalConfig()
	migCfg, err := machine.MigrationConfigFor(cores)
	if err != nil {
		return nil, err
	}
	if err := validateConfigs(normalCfg, migCfg); err != nil {
		return nil, err
	}
	label := func(i int) string { return fmt.Sprintf("%dK", sizes[i]<<6>>10) }
	return runner.Map(opt.ctx(), len(sizes), opt.config(label),
		func(_ context.Context, i int) (SweepPoint, error) {
			return sweepPoint(sizes[i], laps, normalCfg, migCfg)
		})
}

// sweepPoint measures one working-set size on freshly built machines.
func sweepPoint(ws, laps uint64, normalCfg, migCfg machine.Config) (SweepPoint, error) {
	refs := laps * ws
	normal, err := machine.New(normalCfg)
	if err != nil {
		return SweepPoint{}, err
	}
	trace.DriveBatched(trace.NewCircular(ws), normal, refs, 6, 3)
	mig, err := machine.New(migCfg)
	if err != nil {
		return SweepPoint{}, err
	}
	trace.DriveBatched(trace.NewCircular(ws), mig, refs, 6, 3)

	p := SweepPoint{Lines: ws, Bytes: ws << 6}
	nRate := float64(normal.Stats.L2Misses) / float64(normal.Stats.Instructions)
	mRate := float64(mig.Stats.L2Misses) / float64(mig.Stats.Instructions)
	if nRate > 0 {
		p.Ratio = mRate / nRate
	}
	if mig.Stats.Migrations > 0 {
		p.InstrPerMigration = float64(mig.Stats.Instructions) / float64(mig.Stats.Migrations)
		removed := nRate - mRate
		migRate := float64(mig.Stats.Migrations) / float64(mig.Stats.Instructions)
		p.BreakEvenPmig = removed / migRate
	}
	return p, nil
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
