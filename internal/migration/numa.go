package migration

// The distance hysteresis: the Michaud affinity machinery decides
// *where* execution wants to be, and the controller's topology decides
// *whether the move is worth its price*. A move must see the splitter's
// designation persist for ⌈Dist[active][target]⌉ consecutive commits
// before it is paid for — a neighbour hop (distance 1) migrates
// immediately, a cross-chip move must prove itself proportionally
// longer. Under the uniform topology every distance is 1, every hold is
// 1, and decide moves the instant the designation changes: the paper's
// controller, which the "michaud" name registers. The "numa" name
// registers the same controller over the run's topology.

import "math"

// PolicyNuma is the registry name of the distance-weighted policy.
const PolicyNuma = "numa"

// decide applies the distance hysteresis to the splitter's designation
// sub: a move to sub executes only once the designation has persisted
// for ⌈Dist[active][sub]⌉ consecutive commits.
func (c *Controller) decide(sub int) (core int, migrated bool) {
	if sub == c.active {
		c.target, c.pending = -1, 0
		return c.active, false
	}
	if sub != c.target {
		c.target, c.pending = sub, 1
	} else {
		c.pending++
	}
	dist := c.topo.Dist[c.active][sub]
	if c.pending < int(math.Ceil(dist)) {
		c.Deferred++
		return c.active, false
	}
	c.active = sub
	c.target, c.pending = -1, 0
	c.Migrations++
	c.WeightedCost += dist
	c.probes.MigrationGap.Observe(c.Requests - c.lastMigRequests)
	c.lastMigRequests = c.Requests
	return sub, true
}
