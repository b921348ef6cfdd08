// Pointer chase: the paper's motivating use case — an application built
// on linked data structures whose working set exceeds one L2 — run on
// the full 4-core machine model, with and without execution migration,
// including the speedup-vs-Pmig curve of §2.4.
//
// The workload walks a ring of list nodes (a linked structure touched in
// a stable order each iteration, like the traversal phase of em3d or
// health), occasionally mutating payloads. The paper's conclusion
// (§6) singles out exactly this class: "execution migration, as a way
// to decrease L2 misses, is mostly interesting on applications using
// linked data structures".
//
// Run: go run ./examples/pointerchase
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/trace"
)

// listWorkload builds a shuffled singly linked ring of nodes and walks
// it repeatedly.
type listWorkload struct {
	nodes int
}

func (l *listWorkload) run(sink mem.Sink, budget uint64) {
	sp := sim.NewSpace()
	code := sp.NewCode(1 << 20)
	fWalk := code.Func("walk", 512)
	data := sp.AddRegion("list", 1<<30)

	const nodeBytes = 64
	rng := trace.NewRNG(42)
	addrs := make([]mem.Addr, l.nodes)
	// Allocation order is shuffled so successor nodes are not adjacent
	// in memory — genuine pointer chasing, no spatial prefetch benefit.
	for _, p := range rng.Perm(l.nodes) {
		addrs[p] = data.Alloc(nodeBytes, 64)
	}
	next := rng.Perm(l.nodes) // random ring order

	cpu := sim.NewCPU(sink)
	cpu.Enter(fWalk)
	pos := 0
	for cpu.Instrs < budget {
		cpu.Load(addrs[pos])
		cpu.Exec(7)
		if cpu.Instrs%97 == 0 {
			cpu.Store(addrs[pos])
		}
		pos = next[pos]
	}
}

func main() {
	const budget = 30_000_000
	// 24k nodes × 64B = 1.5MB: the sweet spot — too big for one 512KB
	// L2, inside the 2MB aggregate.
	wl := &listWorkload{nodes: 24 << 10}

	normal := machine.MustNew(machine.NormalConfig())
	wl.run(normal, budget)
	mig := machine.MustNew(machine.MigrationConfig())
	wl.run(mig, budget)

	n, m := normal.Stats, mig.Stats
	fmt.Printf("linked-list working set: %d nodes (1.5MB), %dM instructions\n\n", 24<<10, budget/1_000_000)
	fmt.Printf("%-28s %12s %12s\n", "", "1-core", "4-core+mig")
	fmt.Printf("%-28s %12d %12d\n", "L2 misses", n.L2Misses, m.L2Misses)
	fmt.Printf("%-28s %12d %12d\n", "migrations", n.Migrations, m.Migrations)
	ratio := float64(m.L2Misses) / float64(n.L2Misses)
	fmt.Printf("\nmiss ratio (mig/normal): %.3f\n", ratio)

	if be, ok := migration.MissesRemovedPerMigration(n.Outcome(), m.Outcome()); ok {
		fmt.Printf("misses removed per migration: %.1f (break-even Pmig)\n\n", be)
	}

	tm := migration.DefaultTimeModel()
	fmt.Println("speedup vs migration penalty (CPI0=1, L3 penalty=20 cycles):")
	fmt.Printf("  %6s  %s\n", "Pmig", "speedup")
	for _, pmig := range []float64{1, 2, 5, 10, 20, 40, 60, 100} {
		s := tm.Speedup(n.Outcome(), m.Outcome(), pmig, float64(m.Migrations))
		bar := ""
		for i := 0.0; i < (s-0.5)*40 && len(bar) < 70; i += 1 {
			bar += "#"
		}
		fmt.Printf("  %6.0f  %.3f %s\n", pmig, s, bar)
	}
}
