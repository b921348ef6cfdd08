// Package workloads defines the workload abstraction used by every
// experiment: a named program that, when run, pushes a memory reference
// stream (I-fetches, loads, stores) plus instruction counts into a
// mem.Sink.
//
// The paper evaluates 13 SPEC CPU2000 and 5 Olden benchmarks on
// SimpleScalar/PISA. Those binaries and that toolchain are proprietary /
// unavailable, so this repository substitutes analogue kernels — Go
// implementations of the same algorithm classes, instrumented with
// simulated addresses (package sim) — whose working-set shapes (size,
// circularity, randomness, phase structure, pointer chasing, code
// footprint) are calibrated to the paper's Table 1 and Figures 4/5.
// The Olden analogues implement the actual Olden algorithms (Barnes-Hut,
// bitonic sort, em3d, health, mst). See DESIGN.md §2 for the
// substitution rationale.
//
// The kernels are address-exact analogues: the machine sees only the
// reference stream, so a kernel keeps the host state that decides its
// stream — addresses, branch conditions, budget checks, every RNG draw
// in order — and skips arithmetic nothing in the stream reads. A grid
// whose values decide nothing exists only as simulated addresses, and a
// record whose simulated address follows from its index stores none.
package workloads

import (
	"fmt"

	"repro/internal/mem"
)

// Workload is one benchmark analogue.
type Workload interface {
	// Name returns the benchmark identifier (e.g. "181.mcf", "em3d").
	Name() string
	// Suite returns "spec2000" or "olden".
	Suite() string
	// Description summarises the kernel and its working-set character.
	Description() string
	// Run executes the workload until at least budget instructions have
	// been accounted to sink (the final iteration may overshoot).
	Run(sink mem.Sink, budget uint64)
}

// Registry maps names to workload constructors, so each run gets fresh
// state.
type Registry struct {
	factories map[string]func() Workload
	order     []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]func() Workload)}
}

// Register adds a workload factory. Duplicate names panic.
func (r *Registry) Register(name string, f func() Workload) {
	if _, dup := r.factories[name]; dup {
		//emlint:allowpanic init-time registry idiom: a duplicate name is a programming error caught on first run
		panic(fmt.Sprintf("workloads: duplicate %q", name))
	}
	r.factories[name] = f
	r.order = append(r.order, name)
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// New instantiates a fresh workload by name.
func (r *Registry) New(name string) (Workload, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return f(), nil
}

// Base provides the identity boilerplate for workload implementations.
type Base struct {
	WName, WSuite, WDesc string
}

// Name implements Workload.
func (b Base) Name() string { return b.WName }

// Suite implements Workload.
func (b Base) Suite() string { return b.WSuite }

// Description implements Workload.
func (b Base) Description() string { return b.WDesc }
