package spec

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Swim is the 171.swim analogue: the shallow-water finite-difference
// model. Each timestep sweeps several 2-D grids with 9-point stencils —
// circular traversal, but of a working set (~13 MB) far beyond the
// 2 MB aggregate L2, so migration cannot help (Table 2 ratio 1.00; the
// small affinity cache suppresses migrations, §4.2). The grids exist
// only as simulated addresses: no address, branch or budget check reads
// a grid value, so the kernel emits each sweep's references without
// computing the stencil.
type Swim struct {
	workloads.Base
	n int // grid edge
}

// NewSwim returns the default configuration: 6 simulated grids of
// 525×525 float64 ≈ 13.2 MB.
func NewSwim() workloads.Workload {
	return &Swim{
		Base: workloads.Base{
			WName:  "171.swim",
			WSuite: "spec2000",
			WDesc:  "shallow-water stencil; cyclic sweeps of ~13MB grids (working set exceeds 4xL2)",
		},
		n: 525,
	}
}

// Run implements workloads.Workload.
func (w *Swim) Run(sink mem.Sink, budget uint64) {
	sp := sim.NewSpace()
	code := sp.NewCode(1 << 20)
	fCalc1 := code.Func("calc1", 1024)
	fCalc2 := code.Func("calc2", 1024)
	fCalc3 := code.Func("calc3", 768)

	n := w.n
	cells := n * n
	data := sp.AddRegion("grids", 1<<30)
	grid := func() mem.Addr { return data.Alloc(uint64(cells)*8, 64) }
	au, av, ap, aunew, avnew, apnew := grid(), grid(), grid(), grid(), grid(), grid()

	at := func(base mem.Addr, idx int) mem.Addr { return base + mem.Addr(idx*8) }
	cpu := sim.NewCPU(sink)

	// stencil sweep helper: reads three source grids around (i,j), writes
	// one destination; loads are emitted once per line (8 columns).
	sweep := func(dstA, a1, a2, a3 mem.Addr, f *sim.Func) {
		cpu.Enter(f)
		for i := 1; i < n-1; i++ {
			row := i * n
			for j := 1; j < n-1; j++ {
				idx := row + j
				if j%8 == 1 {
					cpu.Load(at(a1, idx))
					cpu.Load(at(a2, idx))
					cpu.Load(at(a3, idx))
					cpu.Load(at(a1, idx-n)) // stencil row above
					cpu.Load(at(a1, idx+n)) // stencil row below
					cpu.Store(at(dstA, idx))
				}
				cpu.Exec(3)
			}
		}
	}

	for cpu.Instrs < budget {
		sweep(aunew, au, av, ap, fCalc1)
		sweep(avnew, av, ap, au, fCalc2)
		sweep(apnew, ap, au, av, fCalc3)
		au, aunew = aunew, au
		av, avnew = avnew, av
		ap, apnew = apnew, ap
	}
}
