package migration

// This file implements the paper's migration-penalty analysis. The paper
// deliberately fixes no value for Pmig — the penalty of one migration
// expressed in units of the L2-miss/L3-hit penalty (§2.4, Pmig > 1) —
// and instead reports the break-even: on 181.mcf, ≈60 L2 misses are
// removed per migration, so migration wins whenever Pmig < 60 (§4.2).

// Outcome summarises one workload's event counts under a configuration,
// normalised per instruction. Populate it from machine.Stats.
type Outcome struct {
	Instructions uint64
	L2Misses     uint64
	Migrations   uint64
}

// MissesRemovedPerMigration computes how many L2 misses each migration
// removed: (missRate(normal) − missRate(migrated)) / migrationRate.
// This is the paper's break-even Pmig: migration improves performance
// exactly when Pmig is below this number. A non-positive result means
// migration removed no misses (it can only hurt). The second return is
// false when the migrated run had no migrations (break-even undefined).
func MissesRemovedPerMigration(normal, migrated Outcome) (float64, bool) {
	if migrated.Migrations == 0 || normal.Instructions == 0 || migrated.Instructions == 0 {
		return 0, false
	}
	mrN := float64(normal.L2Misses) / float64(normal.Instructions)
	mrM := float64(migrated.L2Misses) / float64(migrated.Instructions)
	migRate := float64(migrated.Migrations) / float64(migrated.Instructions)
	return (mrN - mrM) / migRate, true
}

// TimeModel is the simple execution-time model used by the examples and
// ablation benches: cycles = instructions·CPI0 + L2misses·L3Penalty
// (+ migrations·Pmig·L3Penalty). It captures exactly the trade the
// paper studies — migrations versus L3 accesses — and nothing else.
type TimeModel struct {
	// CPI0 is the base cycles per instruction with a perfect L2
	// (default 1).
	CPI0 float64
	// L3Penalty is the L2-miss/L3-hit penalty in cycles (default 20).
	L3Penalty float64
}

// DefaultTimeModel returns CPI0 = 1, L3Penalty = 20.
func DefaultTimeModel() TimeModel { return TimeModel{CPI0: 1, L3Penalty: 20} }

// Cycles estimates the execution time of an outcome. pmig is the
// migration penalty in L3Penalty units (0 for the normal
// configuration), and weighted is the migration cost it multiplies: the
// raw count float64(o.Migrations) on the uniform chip, or a policy's
// WeightedCost (the sum of Dist[from][to] over executed migrations)
// under a non-uniform topology, so a cross-chip move costs
// proportionally more than a neighbour hop.
func (t TimeModel) Cycles(o Outcome, pmig, weighted float64) float64 {
	return float64(o.Instructions)*t.CPI0 +
		float64(o.L2Misses)*t.L3Penalty +
		weighted*pmig*t.L3Penalty
}

// Speedup returns T(normal)/T(migrated) under penalty pmig, charging
// the migrated run the migration cost weighted (see Cycles). Values
// above 1 mean execution migration wins. At equal instruction counts and
// uniform cost, Speedup is 1 exactly when pmig is
// MissesRemovedPerMigration's break-even.
func (t TimeModel) Speedup(normal, migrated Outcome, pmig, weighted float64) float64 {
	return t.Cycles(normal, 0, 0) / t.Cycles(migrated, pmig, weighted)
}
