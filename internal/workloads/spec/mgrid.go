package spec

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Mgrid is the 172.mgrid analogue: the multigrid V-cycle on 3-D grids.
// Relaxation sweeps the fine grid (~4 MB) plus the coarser levels every
// cycle — circular, but the total working set exceeds the 2 MB aggregate
// L2, so the paper reports no migration benefit (Table 2 ratio 1.00).
// The grids exist only as simulated addresses: no address, branch or
// budget check reads a grid value, so the kernel emits each sweep's
// references without relaxing, restricting or interpolating values.
type Mgrid struct {
	workloads.Base
	n int // fine-grid edge (power of two)
}

// NewMgrid returns the default configuration: fine grid 80³ ≈ 4.1 MB
// plus 40³ and 20³ coarse levels.
func NewMgrid() workloads.Workload {
	return &Mgrid{
		Base: workloads.Base{
			WName:  "172.mgrid",
			WSuite: "spec2000",
			WDesc:  "3D multigrid V-cycle; sweeps of ~4.5MB grid hierarchy (exceeds 4xL2)",
		},
		n: 80,
	}
}

// mgLevel is one grid level: its edge and the simulated addresses of
// its solution (u) and residual (r) grids.
type mgLevel struct {
	n      int
	au, ar mem.Addr
}

// Run implements workloads.Workload.
func (w *Mgrid) Run(sink mem.Sink, budget uint64) {
	sp := sim.NewSpace()
	code := sp.NewCode(1 << 20)
	fResid := code.Func("resid", 1024)
	fPsinv := code.Func("psinv", 1024)
	fRprj := code.Func("rprj3", 768)
	fInterp := code.Func("interp", 768)

	data := sp.AddRegion("grids", 1<<30)
	var levels []*mgLevel
	for n := w.n; n >= 10; n /= 2 {
		cells := n * n * n
		levels = append(levels, &mgLevel{
			n:  n,
			au: data.Alloc(uint64(cells)*8, 64),
			ar: data.Alloc(uint64(cells)*8, 64),
		})
	}

	cpu := sim.NewCPU(sink)
	at := func(base mem.Addr, idx int) mem.Addr { return base + mem.Addr(idx*8) }

	// relax runs one 7-point Jacobi-ish sweep over level l, reading the
	// grid at srcA and writing the one at dstA.
	relax := func(l *mgLevel, dstA, srcA mem.Addr, f *sim.Func) {
		cpu.Enter(f)
		n := l.n
		n2 := n * n
		for z := 1; z < n-1; z++ {
			for y := 1; y < n-1; y++ {
				row := z*n2 + y*n
				for x := 1; x < n-1; x++ {
					idx := row + x
					if x%8 == 1 {
						cpu.Load(at(srcA, idx))
						cpu.Load(at(srcA, idx-n))
						cpu.Load(at(srcA, idx+n))
						cpu.Load(at(srcA, idx-n2))
						cpu.Load(at(srcA, idx+n2))
						cpu.Store(at(dstA, idx))
					}
					cpu.Exec(4)
				}
			}
		}
	}

	// transfer moves data between adjacent levels (restriction or
	// prolongation): coarse-grid sweep touching the fine grid strided.
	transfer := func(coarse, fine *mgLevel, f *sim.Func) {
		cpu.Enter(f)
		cn := coarse.n
		cn2 := cn * cn
		fn := fine.n
		fn2 := fn * fn
		fcells := fn2 * fn
		for z := 1; z < cn-1; z++ {
			for y := 1; y < cn-1; y++ {
				for x := 1; x < cn-1; x++ {
					cidx := z*cn2 + y*cn + x
					fidx := (2*z)*fn2 + (2*y)*fn + (2 * x)
					if fidx >= fcells {
						continue
					}
					if x%4 == 1 {
						cpu.Load(at(fine.ar, fidx))
						cpu.Store(at(coarse.ar, cidx))
					}
					cpu.Exec(5)
				}
			}
		}
	}

	for cpu.Instrs < budget {
		// V-cycle: down-sweep with restriction, coarse solves, up-sweep
		// with interpolation, then fine-grid residual+smooth.
		for i := 0; i+1 < len(levels); i++ {
			relax(levels[i], levels[i].ar, levels[i].au, fResid)
			transfer(levels[i+1], levels[i], fRprj)
		}
		last := levels[len(levels)-1]
		relax(last, last.au, last.ar, fPsinv)
		for i := len(levels) - 2; i >= 0; i-- {
			transfer(levels[i+1], levels[i], fInterp)
			relax(levels[i], levels[i].au, levels[i].ar, fPsinv)
		}
	}
}
