package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/run"
	"repro/internal/workloads/suite"
)

// tournamentNames keeps the tournament tests cheap: two workloads with
// contrasting migration behaviour.
var tournamentNames = []string{"181.mcf", "mst"}

// TestTournamentDeterminism: the tournament's rows and rendered table
// are byte-identical across worker counts.
func TestTournamentDeterminism(t *testing.T) {
	reg := suite.Registry()
	tc := TournamentConfig{
		Policies: []string{"michaud", "numa", "never"},
		Topology: "cluster",
		Cores:    4,
		Budget:   500_000,
	}
	serial, err := TournamentBatch(reg, tournamentNames, tc, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TournamentBatch(reg, tournamentNames, tc, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("tournament rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if a, b := FormatTournament(serial, 0), FormatTournament(parallel, 0); a != b {
		t.Fatalf("formatted tournament diverged:\n%s\nvs\n%s", a, b)
	}
	if len(serial) != len(tournamentNames)*len(tc.Policies) {
		t.Fatalf("got %d rows, want %d", len(serial), len(tournamentNames)*len(tc.Policies))
	}
}

// TestTournamentMichaudRowMatchesTable2: the tournament's "michaud"
// rows must carry exactly the stats a plain Table2 run produces — the
// policy plumbing may not perturb the default path.
func TestTournamentMichaudRowMatchesTable2(t *testing.T) {
	reg := suite.Registry()
	const budget = 500_000
	tc := TournamentConfig{Policies: []string{"michaud"}, Cores: 4, Budget: budget}
	rows, err := TournamentBatch(reg, []string{"181.mcf"}, tc, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2Batch(reg, []string{"181.mcf"}, budget, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Table2 captures m.Stats (pre-FinalStats); compare the fields that
	// exist in both, zeroing the fold-in.
	gotMig := rows[0].Migrated
	gotMig.AffinityTableDropped = 0
	gotNorm := rows[0].Normal
	gotNorm.AffinityTableDropped = 0
	if gotMig != t2[0].Migrated || gotNorm != t2[0].Normal {
		t.Fatalf("michaud tournament row diverged from Table2:\n%+v\nvs\n%+v", rows[0], t2[0])
	}
	// On the uniform chip the weighted cost is the raw migration count.
	if rows[0].WeightedCost != float64(rows[0].Migrated.Migrations) {
		t.Fatalf("uniform WeightedCost %g != migrations %d", rows[0].WeightedCost, rows[0].Migrated.Migrations)
	}
}

// TestTournamentNumaUniformEqualsMichaud: under the uniform topology
// the numa policy's tournament stats equal michaud's exactly (deferral
// and weighting are no-ops at distance 1).
func TestTournamentNumaUniformEqualsMichaud(t *testing.T) {
	reg := suite.Registry()
	tc := TournamentConfig{Policies: []string{"michaud", "numa"}, Cores: 4, Budget: 500_000}
	rows, err := TournamentBatch(reg, []string{"181.mcf"}, tc, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mich, numa := rows[0], rows[1]
	if mich.Migrated != numa.Migrated {
		t.Fatalf("numa-on-uniform stats diverged from michaud:\n%+v\nvs\n%+v", mich.Migrated, numa.Migrated)
	}
	if numa.Deferred != 0 {
		t.Fatalf("numa-on-uniform deferred %d migrations", numa.Deferred)
	}
}

// TestTournamentNeverPolicyIsBaseline: the never policy executes no
// migrations, and its miss behaviour matches the 1-core baseline's rate
// (one L2's worth of capacity) even though the machine nominally has 4.
func TestTournamentNeverPolicyIsBaseline(t *testing.T) {
	reg := suite.Registry()
	tc := TournamentConfig{Policies: []string{"never"}, Cores: 4, Budget: 500_000}
	rows, err := TournamentBatch(reg, []string{"mst"}, tc, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Migrated.Migrations != 0 || r.HasMigrations {
		t.Fatalf("never policy migrated %d times", r.Migrated.Migrations)
	}
	if r.Migrated.L2Misses != r.Normal.L2Misses {
		t.Fatalf("never-policy L2 misses %d != 1-core baseline %d", r.Migrated.L2Misses, r.Normal.L2Misses)
	}
	if r.WeightedCost != 0 {
		t.Fatalf("never policy WeightedCost = %g", r.WeightedCost)
	}
}

// TestTournamentRejectsBadConfig: unknown policies and topologies fail
// at the batch boundary, before any job runs.
func TestTournamentRejectsBadConfig(t *testing.T) {
	reg := suite.Registry()
	if _, err := TournamentBatch(reg, tournamentNames, TournamentConfig{Policies: []string{"nope"}, Cores: 4, Budget: 1000}, RunOptions{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := TournamentBatch(reg, tournamentNames, TournamentConfig{Policies: []string{"numa"}, Topology: "nope", Cores: 4, Budget: 1000}, RunOptions{}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := TournamentBatch(reg, tournamentNames, TournamentConfig{Cores: 4, Budget: 1000}, RunOptions{}); err == nil {
		t.Fatal("empty policy list accepted")
	}
}

// TestMultiRunTotalsAndDeterminism: per-program stats sum to the
// cluster totals, and the whole result is identical across worker
// counts.
func TestMultiRunTotalsAndDeterminism(t *testing.T) {
	mc := run.Spec{
		Programs: []string{"mst", "181.mcf"},
		Instr:    300_000,
		Cores:    4,
	}
	serial, err := MultiRun(mc, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MultiRun(mc, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("multirun diverged across worker counts:\n%+v\nvs\n%+v", serial, parallel)
	}
	var sum machine.Stats
	for _, p := range serial.PerProgram {
		sum = machine.AddStats(sum, p.Stats)
	}
	if sum != serial.Totals {
		t.Fatalf("per-program stats do not sum to totals:\nsum:    %+v\ntotals: %+v", sum, serial.Totals)
	}
	if serial.Programs != 2 || len(serial.PerProgram) != 2 {
		t.Fatalf("program count %d/%d", serial.Programs, len(serial.PerProgram))
	}
	// JSON encoding is deterministic and omits default policy/topology.
	var buf bytes.Buffer
	if err := WriteMultiRunJSON(&buf, serial); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"policy"`) || strings.Contains(buf.String(), `"topology"`) {
		t.Fatalf("default multirun JSON leaks policy/topology fields:\n%s", buf.String())
	}
	out := FormatMultiRun(serial)
	if !strings.Contains(out, "mst") || !strings.Contains(out, "total") {
		t.Fatalf("formatted multirun missing rows:\n%s", out)
	}
}

// TestMultiRunContention: co-scheduling two programs on one shared L2
// complex must cost misses versus each running alone on the same
// hardware scaled: the contended per-program L2 misses are at least the
// solo-4-core equivalents, and strictly more for cache-pressured mixes.
func TestMultiRunContention(t *testing.T) {
	mc := run.Spec{
		Programs: []string{"181.mcf", "181.mcf"},
		Instr:    300_000,
		Cores:    4,
	}
	res, err := MultiRun(mc, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same deterministic workload twice: both programs execute the same
	// instruction stream in disjoint address spaces.
	p0, p1 := res.PerProgram[0], res.PerProgram[1]
	if p0.Stats.Instructions != p1.Stats.Instructions {
		t.Fatalf("identical programs retired different instruction counts: %d vs %d",
			p0.Stats.Instructions, p1.Stats.Instructions)
	}
	// Contention: two copies sharing the L2 complex must miss more than
	// one copy owning a single L2 of the same size (the solo baseline).
	if p0.Stats.L2Misses <= p0.Solo.L2Misses/2 {
		t.Fatalf("no contention visible: contended misses %d vs solo %d", p0.Stats.L2Misses, p0.Solo.L2Misses)
	}
}
