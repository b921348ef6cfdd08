package affinity

import "repro/internal/telemetry"

// TableProbes are the unbounded affinity table's optional telemetry
// counters for hit/miss/eviction accounting, which that table keeps no
// field for (the bounded Cache keeps its own Hits/Misses/Evictions, and
// a registry exposes those as views instead). The zero value is inert
// (every handle is a no-op), so the table works unchanged without
// instrumentation; the machine wires real counters in when it owns a
// telemetry registry.
//
// Probes are observational only: they are not part of a table's
// serialisable state (the registry owning the counters snapshots their
// values), and state capture/restore goes through non-counting internal
// lookups so checkpointing never perturbs them.
type TableProbes struct {
	Hits, Misses, Evictions telemetry.Counter
}
