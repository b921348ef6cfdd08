package suite

import (
	"runtime"
	"testing"

	"repro/internal/mem"
)

// hostAllocBound caps the Go heap one generator may allocate over one
// 200,000-instruction Run (a service miss). A generator owes the machine
// exact addresses, branch outcomes and budget checks, not the program's
// arithmetic, so a kernel keeps only the host state that decides its
// stream. The largest such kernel, mst with its 523,264-entry edge pool,
// allocates about 6.5 MB; value grids (swim's 13.3 MB, mgrid's 9.4 MB)
// and per-record copies of computable addresses do not fit.
const hostAllocBound = 8 << 20

// TestWorkloadHostAlloc measures runtime.MemStats.TotalAlloc over one
// Run of each program into a null sink.
func TestWorkloadHostAlloc(t *testing.T) {
	r := Registry()
	var before, after runtime.MemStats
	for _, name := range r.Names() {
		w, err := r.New(name)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		w.Run(mem.NullSink{}, 200_000)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB", name, float64(got)/1e6)
		if got > hostAllocBound {
			t.Errorf("%s allocated %.2f MB of host memory over a 200,000-instruction run, bound %.2f MB",
				name, float64(got)/1e6, float64(hostAllocBound)/1e6)
		}
	}
}
