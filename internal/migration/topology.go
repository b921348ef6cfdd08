package migration

// Core topologies: the paper's chip is symmetric — every migration
// costs the same Pmig — but real multi-cores are not. A Topology gives
// every ordered core pair a distance, expressed as a multiplier on the
// baseline migration penalty, so the NUMA-aware policy can weigh
// "should I move?" against "how far?" and the TimeModel can charge a
// long-haul migration more than a neighbour hop.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Topology is a core-distance matrix. Dist[i][j] is the cost multiplier
// of migrating from core i to core j, in units of the baseline
// migration penalty Pmig: 1 is a nearest-neighbour move, larger values
// are proportionally more expensive. Dist[i][i] is 0. Matrices need not
// be symmetric (a push across a directional ring costs differently each
// way), hence the full matrix rather than a triangle.
type Topology struct {
	// Name is the registry name the matrix was built from ("uniform",
	// "cluster", "ring", "mesh").
	Name string
	// Dist is the Cores×Cores distance matrix.
	Dist [][]float64
}

// TopologyUniform is the default topology name: every migration costs
// the baseline penalty, the paper's symmetric chip.
const TopologyUniform = "uniform"

// Cores returns the number of cores the matrix covers.
func (t *Topology) Cores() int { return len(t.Dist) }

// Validate checks the matrix is square, covers cores cores, has a zero
// diagonal and positive finite off-diagonal entries.
func (t *Topology) Validate(cores int) error {
	if len(t.Dist) != cores {
		return fmt.Errorf("migration: topology %q covers %d cores, machine has %d", t.Name, len(t.Dist), cores)
	}
	for i, row := range t.Dist {
		if len(row) != cores {
			return fmt.Errorf("migration: topology %q row %d has %d entries, want %d", t.Name, i, len(row), cores)
		}
		for j, d := range row {
			switch {
			case i == j && d != 0:
				return fmt.Errorf("migration: topology %q: Dist[%d][%d] = %g, diagonal must be 0", t.Name, i, j, d)
			case i != j && (d <= 0 || math.IsInf(d, 0) || math.IsNaN(d)):
				return fmt.Errorf("migration: topology %q: Dist[%d][%d] = %g, want positive finite", t.Name, i, j, d)
			}
		}
	}
	return nil
}

// Uniform reports whether every off-diagonal distance is exactly 1 —
// the paper's symmetric chip, under which every topology-aware code
// path must reproduce the topology-free behaviour.
func (t *Topology) Uniform() bool {
	for i, row := range t.Dist {
		for j, d := range row {
			if i != j && d != 1 {
				return false
			}
		}
	}
	return true
}

// NewUniformTopology returns the symmetric chip: all off-diagonal
// distances 1.
func NewUniformTopology(cores int) *Topology {
	return &Topology{Name: TopologyUniform, Dist: fillDist(cores, func(i, j int) float64 { return 1 })}
}

// NewClusterTopology models two NUMA nodes: cores [0, cores/2) form one
// cluster, the rest the other. Intra-cluster migrations cost 1,
// cross-cluster migrations cost interCost (the remote-node factor; 4 is
// a typical local:remote latency ratio).
func NewClusterTopology(cores int, interCost float64) *Topology {
	half := cores / 2
	return &Topology{Name: "cluster", Dist: fillDist(cores, func(i, j int) float64 {
		if (i < half) == (j < half) {
			return 1
		}
		return interCost
	})}
}

// NewRingTopology places the cores on a directional ring: migrating
// from i to j costs the hop count walking forward around the ring, so
// the matrix is deliberately asymmetric (going "back" one core costs
// cores-1 hops forward).
func NewRingTopology(cores int) *Topology {
	return &Topology{Name: "ring", Dist: fillDist(cores, func(i, j int) float64 {
		return float64(((j - i) + cores) % cores)
	})}
}

// NewMeshTopology arranges the cores on a 2×(cores/2) grid and charges
// Manhattan distance per migration — the classic on-chip mesh.
func NewMeshTopology(cores int) *Topology {
	cols := cores / 2
	pos := func(c int) (row, col int) { return c / cols, c % cols }
	return &Topology{Name: "mesh", Dist: fillDist(cores, func(i, j int) float64 {
		ri, ci := pos(i)
		rj, cj := pos(j)
		return math.Abs(float64(ri-rj)) + math.Abs(float64(ci-cj))
	})}
}

func fillDist(cores int, f func(i, j int) float64) [][]float64 {
	d := make([][]float64, cores)
	for i := range d {
		d[i] = make([]float64, cores)
		for j := range d[i] {
			if i != j {
				d[i][j] = f(i, j)
			}
		}
	}
	return d
}

// topologyBuilders maps registry names to constructors over a core
// count. "cluster" uses the default 4× remote factor; parameterised
// variants can join the registry without touching call sites.
var topologyBuilders = map[string]func(cores int) *Topology{
	TopologyUniform: NewUniformTopology,
	"cluster":       func(cores int) *Topology { return NewClusterTopology(cores, 4) },
	"ring":          NewRingTopology,
	"mesh":          NewMeshTopology,
}

// TopologyNames returns the registered topology names, sorted.
func TopologyNames() []string {
	names := make([]string, 0, len(topologyBuilders))
	for n := range topologyBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewTopology builds the named topology for a core count. name == ""
// selects uniform. Core counts follow the machine's constraint (2, 4
// or 8) but any even count ≥ 2 produces a well-formed matrix.
func NewTopology(name string, cores int) (*Topology, error) {
	if name == "" {
		name = TopologyUniform
	}
	b, ok := topologyBuilders[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("migration: unknown topology %q (have %v)", name, TopologyNames())
	}
	if cores < 2 || cores%2 != 0 {
		return nil, fmt.Errorf("migration: topology %q needs an even core count ≥ 2, got %d", name, cores)
	}
	return b(cores), nil
}

// ValidTopology reports whether name is a registered topology ("" means
// uniform).
func ValidTopology(name string) bool {
	if name == "" {
		return true
	}
	_, ok := topologyBuilders[strings.ToLower(name)]
	return ok
}
