package olden

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Mst is the Olden mst benchmark: Prim's minimum-spanning-tree algorithm
// where edge weights live in per-vertex hash tables (the original's
// distinctive data structure). Every step scans all remaining vertices
// and probes each one's hash table for the distance to the newly added
// vertex — a quadratic sweep over a multi-megabyte hash heap. The
// traversal is cyclic but the working set exceeds the aggregate L2, so
// the paper reports no benefit (Table 2 ratio 1.00), with migrations
// suppressed by affinity-cache misses (§4.2). Paper input: 1024 nodes.
type Mst struct {
	workloads.Base
	nodes int
}

// NewMst returns the default configuration: 2048 vertices with 523,264
// hash entries (32 bytes each, ≈ 16 MiB of simulated hash heap — far
// beyond the 2 MB aggregate, like the paper's mst whose stack profile
// only falls near 16 MB), and each Prim step's chain walks touch more
// than the aggregate L2 can hold. The host keeps one 12-byte
// {key, val, next} record per entry (≈ 6.3 MB); an entry's simulated
// address follows from its index.
func NewMst() workloads.Workload {
	return &Mst{
		Base: workloads.Base{
			WName:  "mst",
			WSuite: "olden",
			WDesc:  "Prim's MST over per-vertex edge hash tables (~17MB; exceeds 4xL2, no benefit)",
		},
		nodes: 2048,
	}
}

const mstBuckets = 16

// mstHashEnt is one edge-hash entry. Entry id lives at simulated address
// entBase + 32*id, where sequential 32-byte allocations would put it.
type mstHashEnt struct {
	key  int32
	val  int32
	next int32
}

type mstVertex struct {
	buckets [mstBuckets]int32 // entry-pool indices, -1 empty
	bktAddr mem.Addr
	mindist int32
	addr    mem.Addr
	inTree  bool
}

// mstStored reports whether vertex i stores an edge to j: a subset of
// pairs that keeps ~32 entries per bucket.
func mstStored(i, j int) bool {
	return i != j && (uint32(i*j)+uint32(i+j))%4 == 0
}

// Run implements workloads.Workload.
func (w *Mst) Run(sink mem.Sink, budget uint64) {
	sp := sim.NewSpace()
	code := sp.NewCode(1 << 20)
	fBlue := code.Func("BlueRule", 1024)
	fHash := code.Func("HashLookup", 512)

	data := sp.AddRegion("mst", 1<<33)
	const vertBytes = 64
	const entBytes = 32

	rng := trace.NewRNG(1024)
	n := w.nodes
	verts := make([]mstVertex, n)

	hashOf := func(a, b int32) uint32 { return uint32(a*31+b*17) % mstBuckets }

	for i := range verts {
		verts[i].addr = data.Alloc(vertBytes, 64)
		verts[i].bktAddr = data.Alloc(mstBuckets*8, 64)
		for b := range verts[i].buckets {
			verts[i].buckets[b] = -1
		}
	}
	// Dense-ish edge weights: each vertex stores a weight to a fixed
	// subset of the other vertices (the original computes weights from a
	// pseudo-random function; it stores one entry per pair). A counting
	// pass sizes the pool exactly.
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if mstStored(i, j) {
				count++
			}
		}
	}
	pool := make([]mstHashEnt, 0, count)
	entBase := data.Alloc(uint64(count)*entBytes, entBytes)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !mstStored(i, j) {
				continue
			}
			h := hashOf(int32(i), int32(j))
			id := int32(len(pool))
			pool = append(pool, mstHashEnt{
				key:  int32(j),
				val:  int32(rng.Uint64n(65536)),
				next: verts[i].buckets[h],
			})
			verts[i].buckets[h] = id
		}
	}

	cpu := sim.NewCPU(sink)

	// lookup probes vertex i's hash table for the weight to j.
	lookup := func(i, j int32) (int32, bool) {
		cpu.Enter(fHash)
		v := &verts[i]
		h := hashOf(i, j)
		cpu.Load(v.bktAddr + mem.Addr(h*8))
		cpu.Exec(6)
		for e := v.buckets[h]; e >= 0; e = pool[e].next {
			cpu.LoadPtr(entBase + mem.Addr(e)*entBytes)
			cpu.Exec(4)
			if pool[e].key == j {
				return pool[e].val, true
			}
		}
		return 0, false
	}

	for cpu.Instrs < budget {
		// Reset and run a full Prim pass.
		cpu.Enter(fBlue)
		for i := range verts {
			verts[i].inTree = false
			verts[i].mindist = 1 << 30
			cpu.Store(verts[i].addr)
			cpu.Exec(3)
		}
		verts[0].inTree = true
		last := int32(0)
		for added := 1; added < n && cpu.Instrs < budget; added++ {
			cpu.Enter(fBlue)
			best, bestD := int32(-1), int32(1<<30)
			for i := int32(0); i < int32(n); i++ {
				if verts[i].inTree {
					continue
				}
				cpu.Load(verts[i].addr)
				cpu.Exec(5)
				// BlueRule: update i's mindist with the edge to `last`
				if d, ok := lookup(i, last); ok && d < verts[i].mindist {
					verts[i].mindist = d
					cpu.Store(verts[i].addr)
				}
				if verts[i].mindist < bestD {
					best, bestD = i, verts[i].mindist
				}
			}
			if best < 0 {
				// no stored edge yet: pick the first non-tree vertex
				for i := int32(0); i < int32(n); i++ {
					if !verts[i].inTree {
						best = i
						break
					}
				}
			}
			verts[best].inTree = true
			cpu.Store(verts[best].addr)
			cpu.Exec(8)
			last = best
		}
	}
}
