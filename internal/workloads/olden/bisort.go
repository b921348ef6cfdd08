package olden

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Bisort is the Olden bisort benchmark: bitonic sort of random integers
// stored in a perfect binary tree. The algorithm (Bilardi–Nicolau) sorts
// by recursive bimerge/bisort over the tree, swapping subtree values in
// place — a depth-first traversal whose reuse is stack-like, which is
// why the paper finds essentially no splittability (Table 2 ratio 1.08)
// even though the tree is large. Paper input: 250,000 numbers.
type Bisort struct {
	workloads.Base
	size int
}

// NewBisort returns the paper's configuration (250k values, stored in a
// 2^18-1 node perfect tree like the original, which rounds to a power
// of two).
func NewBisort() workloads.Workload {
	return &Bisort{
		Base: workloads.Base{
			WName:  "bisort",
			WSuite: "olden",
			WDesc:  "bitonic sort on a 256k-node binary tree; depth-first swaps (not splittable)",
		},
		size: 1<<18 - 1,
	}
}

// bisortTree is the sort's tree stored in heap order: node i's children
// are 2i+1 and 2i+2. Each node keeps its value and the allocation slot
// of its simulated record, which sits at base + bisortNodeBytes*slot.
type bisortTree struct {
	nodes []bisortNode
	base  mem.Addr
}

type bisortNode struct {
	value, slot int32
}

// bisortNodeBytes is a node record's size: two nodes per line, like the
// original's records.
const bisortNodeBytes = 32

func (t *bisortTree) addr(id int32) mem.Addr {
	return t.base + mem.Addr(t.nodes[id].slot)*bisortNodeBytes
}

// left and right return a node's child, or -1 for a leaf.
func (t *bisortTree) left(id int32) int32 {
	if c := 2*id + 1; int(c) < len(t.nodes) {
		return c
	}
	return -1
}

func (t *bisortTree) right(id int32) int32 {
	if c := 2*id + 2; int(c) < len(t.nodes) {
		return c
	}
	return -1
}

const (
	bisortUp   = false
	bisortDown = true
)

// Run implements workloads.Workload.
func (w *Bisort) Run(sink mem.Sink, budget uint64) {
	sp := sim.NewSpace()
	code := sp.NewCode(1 << 20)
	fBisort := code.Func("bisort", 512)
	fBimerge := code.Func("bimerge", 768)
	fSwap := code.Func("swapValLeft", 256)

	data := sp.AddRegion("bisort", 1<<30)

	rng := trace.NewRNG(250000)
	// Node records are allocated in random arrival order, like the
	// original's malloc pattern: node perm[k] takes the k-th record.
	t := &bisortTree{
		nodes: make([]bisortNode, w.size),
		base:  data.Alloc(uint64(w.size)*bisortNodeBytes, 32),
	}
	nodes := t.nodes
	for k, p := range rng.Perm(w.size) {
		nodes[p].slot = int32(k)
	}
	for i := range nodes {
		nodes[i].value = int32(rng.Uint64())
	}

	cpu := sim.NewCPU(sink)

	// swapValLeft / swapValRight mirror the original helpers: exchange
	// the value of a node with its left/right child's subtree as needed.
	var bimerge func(id int32, dir bool) int32
	var swapLeft func(id int32)
	swapLeft = func(id int32) {
		cpu.Enter(fSwap)
		cpu.Load(t.addr(id))
		cpu.Exec(6)
		if l := t.left(id); l >= 0 {
			cpu.Load(t.addr(l))
			n, c := &nodes[id], &nodes[l]
			n.value, c.value = c.value, n.value
			cpu.Store(t.addr(id))
			cpu.Store(t.addr(l))
			cpu.Exec(6)
		}
	}

	bimerge = func(id int32, dir bool) int32 {
		if cpu.Instrs >= budget {
			return 0 // budget pruning: stop descending
		}
		cpu.Enter(fBimerge)
		cpu.Load(t.addr(id))
		cpu.Exec(10)
		// Compare-exchange down the spine: walk both subtrees swapping
		// out-of-order pairs (the original's pl/pr walk).
		l, r := t.left(id), t.right(id)
		for l >= 0 && r >= 0 {
			nl, nr := &nodes[l], &nodes[r]
			cpu.LoadPtr(t.addr(l))
			cpu.LoadPtr(t.addr(r))
			cpu.Exec(8)
			if (nl.value > nr.value) != dir {
				nl.value, nr.value = nr.value, nl.value
				cpu.Store(t.addr(l))
				cpu.Store(t.addr(r))
			}
			if (uint32(nl.value)^uint32(nr.value))&1 == 0 {
				l, r = t.left(l), t.left(r)
			} else {
				l, r = t.right(l), t.right(r)
			}
		}
		if l := t.left(id); l >= 0 {
			bimerge(l, dir)
			bimerge(t.right(id), dir)
			swapLeft(id)
		}
		return nodes[id].value
	}

	var bisortRec func(id int32, dir bool)
	bisortRec = func(id int32, dir bool) {
		if cpu.Instrs >= budget {
			return // budget pruning
		}
		cpu.Enter(fBisort)
		cpu.Load(t.addr(id))
		cpu.Exec(8)
		l := t.left(id)
		if l < 0 {
			return
		}
		bisortRec(l, dir)
		bisortRec(t.right(id), !dir)
		bimerge(id, dir)
	}

	for cpu.Instrs < budget {
		bisortRec(0, bisortUp)
		bisortRec(0, bisortDown)
	}
}
