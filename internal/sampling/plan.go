package sampling

// Planning: which intervals to simulate, and how to batch them into
// chains so one fast-forward pass serves several measured intervals.

// Measurement roles. Every cluster measures its medoid; clusters with
// at least two members also measure the member farthest from the medoid
// (the "probe"), which is what records the within-cluster variance the
// error bars are built from.
const (
	RoleMedoid = "medoid"
	RoleProbe  = "probe"
)

// Measured is one interval selected for full-fidelity simulation.
type Measured struct {
	Interval int // interval index
	Cluster  int
	Role     string
}

// Chain is one independent measurement on a fresh machine pair:
// fast-forward (read without delivering) to the start of FirstInterval,
// deliver intervals FirstInterval..LastInterval into the machines,
// measuring the Measured subset. Consecutive measured intervals whose
// warmup windows touch share a chain, so the stream between them is
// delivered once and the machines stay warm across the gap.
type Chain struct {
	// SkipEvents is the fast-forward prefix (== the StartEvent of
	// FirstInterval).
	SkipEvents    uint64
	FirstInterval int
	LastInterval  int
	// Measured indexes into Plan.Measured, ascending.
	Measured []int
}

// Plan is the full sampling schedule.
type Plan struct {
	Clusters Clusters
	Measured []Measured // ascending by interval index
	Chains   []Chain
}

// NewPlan selects the measured intervals for a clustering and groups
// them into chains with warmup intervals of unmeasured delivery before
// each cold start. Warmup counts intervals, not events; chains merge
// whenever delivery would be contiguous or overlapping.
func NewPlan(intervals []Interval, cl Clusters, warmup int) Plan {
	if warmup < 0 {
		warmup = 0
	}
	p := Plan{Clusters: cl}

	// Select medoid + farthest member per cluster.
	probe := make([]int, cl.K())
	probeDist := make([]float64, cl.K())
	for c := range probe {
		probe[c] = -1
	}
	for i := range intervals {
		c := cl.Assign[i]
		if c < 0 || i == cl.Medoid[c] {
			continue
		}
		d := sigDist(intervals[i].Sig, intervals[cl.Medoid[c]].Sig)
		if probe[c] == -1 || d > probeDist[c] {
			probe[c], probeDist[c] = i, d
		}
	}
	selected := make(map[int]Measured, 2*cl.K())
	for c := 0; c < cl.K(); c++ {
		selected[cl.Medoid[c]] = Measured{Interval: cl.Medoid[c], Cluster: c, Role: RoleMedoid}
		if probe[c] != -1 {
			selected[probe[c]] = Measured{Interval: probe[c], Cluster: c, Role: RoleProbe}
		}
	}
	// Ascending interval order (deterministic: indexes, not map order).
	for i := range intervals {
		if m, ok := selected[i]; ok {
			p.Measured = append(p.Measured, m)
		}
	}

	// Chain the measured intervals.
	for mi, m := range p.Measured {
		first := m.Interval - warmup
		if first < 0 {
			first = 0
		}
		if n := len(p.Chains); n > 0 && first <= p.Chains[n-1].LastInterval+1 {
			c := &p.Chains[n-1]
			c.LastInterval = m.Interval
			c.Measured = append(c.Measured, mi)
			continue
		}
		p.Chains = append(p.Chains, Chain{
			SkipEvents:    intervals[first].StartEvent,
			FirstInterval: first,
			LastInterval:  m.Interval,
			Measured:      []int{mi},
		})
	}
	return p
}

// DeliveredEvents returns how many events the plan simulates at full
// fidelity (warmup + gaps + measured intervals across all chains).
func (p Plan) DeliveredEvents(intervals []Interval) uint64 {
	var d uint64
	for _, c := range p.Chains {
		d += intervals[c.LastInterval].EndEvent - intervals[c.FirstInterval].StartEvent
	}
	return d
}
