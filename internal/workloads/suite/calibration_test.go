package suite

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/lrustack"
	"repro/internal/mem"
)

// wsSink measures a workload's effective working set: the distinct-line
// footprint of data and code streams, the instruction count, and the
// stack profile of the L1-filtered data stream (16 KB fully-associative
// filter, as in the paper's §4.1 measurements).
type wsSink struct {
	dataLines map[mem.Line]bool
	codeLines map[mem.Line]bool
	dl1       *cache.FullyAssoc
	stack     *lrustack.Stack
	instr     uint64
	dataRefs  uint64
	fetches   uint64
}

func newWSSink() *wsSink {
	// thresholds in lines: 512KB, 2MB, 8MB
	return &wsSink{
		dataLines: map[mem.Line]bool{},
		codeLines: map[mem.Line]bool{},
		dl1:       cache.NewFullyAssoc((16 << 10) / 64),
		stack:     lrustack.New([]int64{8 << 10, 32 << 10, 128 << 10}, 0),
	}
}

func (s *wsSink) Access(a mem.Addr, k mem.Kind) {
	line := mem.LineOf(a, 6)
	if k == mem.IFetch {
		s.codeLines[line] = true
		s.fetches++
		return
	}
	s.dataRefs++
	s.dataLines[line] = true
	if s.dl1.Ref(line) {
		return
	}
	s.stack.Ref(line)
}

func (s *wsSink) Instr(n uint64) { s.instr += n }

// footprint in bytes
func (s *wsSink) dataBytes() uint64 { return uint64(len(s.dataLines)) * 64 }
func (s *wsSink) codeBytes() uint64 { return uint64(len(s.codeLines)) * 64 }

// run executes a workload into a fresh wsSink.
func runWS(t *testing.T, name string, budget uint64) *wsSink {
	t.Helper()
	w, err := Registry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	s := newWSSink()
	w.Run(s, budget)
	return s
}

// TestWorkingSetRegimes pins each benchmark to the cache-size regime its
// Table 2 behaviour depends on:
//
//   - "fits one L2" (bh, crafty, vpr, vortex): p(512KB) must be small —
//     migration has nothing to win.
//   - "fits 4 L2s, not one" (art, ammp, mcf, em3d, health, bzip2): the
//     stream must still miss substantially at 512KB but the footprint
//     stays under ~4 MB.
//   - "exceeds 4 L2s" (swim, mgrid, mst): footprint beyond 4 MB and
//     heavy misses even at 2 MB.
func TestWorkingSetRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second calibration sweep")
	}
	const budget = 8_000_000

	// vortex's store (≈0.9 MB with indexes) only mostly fits, like the
	// paper's (moderate baseline L2 misses, slight migration harm), so
	// it gets a looser bound.
	fitsOne := map[string]float64{"bh": 0.35, "186.crafty": 0.35, "175.vpr": 0.35, "255.vortex": 0.55}
	for name, bound := range fitsOne {
		name, bound := name, bound
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := runWS(t, name, budget)
			if p := s.stack.Profile().Frac(0); p > bound {
				t.Errorf("%s: p(512KB) = %.3f, want below %.2f (working set should fit one L2)", name, p, bound)
			}
		})
	}

	fitsFour := []string{"179.art", "188.ammp", "181.mcf", "em3d", "health", "256.bzip2"}
	for _, name := range fitsFour {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := runWS(t, name, budget)
			if p := s.stack.Profile().Frac(0); p < 0.2 {
				t.Errorf("%s: p(512KB) = %.3f, want substantial misses at one-L2 size", name, p)
			}
			if fp := s.dataBytes(); fp > 5<<20 {
				t.Errorf("%s: data footprint %d MB exceeds the fits-aggregate regime", name, fp>>20)
			}
		})
	}

	exceeds := []string{"171.swim", "172.mgrid", "mst"}
	for _, name := range exceeds {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := runWS(t, name, budget)
			if fp := s.dataBytes(); fp < 4<<20 {
				t.Errorf("%s: data footprint %d MB, want > 4 MB (beyond-aggregate regime)", name, fp>>20)
			}
			if p := s.stack.Profile().Frac(1); p < 0.2 {
				t.Errorf("%s: p(2MB) = %.3f, want heavy misses beyond the aggregate", name, p)
			}
		})
	}
}

// TestCodeFootprints pins the instruction-stream regimes of Table 1:
// gcc, crafty and vortex are the I-cache-pressure benchmarks (IL1
// misses in the tens of millions per billion instructions); art, mcf,
// gzip and the Olden codes run tiny loops.
func TestCodeFootprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second calibration sweep")
	}
	const budget = 4_000_000

	heavy := []string{"176.gcc", "186.crafty", "255.vortex"}
	for _, name := range heavy {
		s := runWS(t, name, budget)
		if cb := s.codeBytes(); cb < 100<<10 {
			t.Errorf("%s: code footprint %d KB, want > 100 KB", name, cb>>10)
		}
	}
	tiny := []string{"179.art", "181.mcf", "164.gzip", "em3d", "bisort", "health", "mst", "bh"}
	for _, name := range tiny {
		s := runWS(t, name, budget)
		if cb := s.codeBytes(); cb > 16<<10 {
			t.Errorf("%s: code footprint %d KB, want < 16 KB (fits IL1)", name, cb>>10)
		}
	}
}

// TestDataIntensity: every workload's data-reference density must be in
// a plausible band (the paper's L1-miss intervals imply memory-intense
// kernels, not compute-only loops).
func TestDataIntensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second calibration sweep")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := runWS(t, name, 3_000_000)
			refsPerKInstr := float64(s.dataRefs) / float64(s.instr) * 1000
			if refsPerKInstr < 30 || refsPerKInstr > 700 {
				t.Errorf("%s: %.0f data refs per 1000 instructions, outside [30,700]", name, refsPerKInstr)
			}
		})
	}
}
