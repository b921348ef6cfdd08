package machine

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// refSink drives a Machine through the reference kernel: a
// record-at-a-time Access/Instr that folds every count into Stats as it
// happens and dispatches each record on its own. It shares the slow
// path (request, fetch, storeThrough) with AccessBatch, so a
// disagreement between the two isolates the batch loop: its local
// accumulators, its instruction-record handling and its dispatch.
type refSink struct{ m *Machine }

func (r refSink) Instr(n uint64) {
	m := r.m
	m.Stats.Instructions += n
	if m.cfg.Migration == nil {
		return
	}
	if m.cfg.BroadcastThreshold > 0 && !m.polNearMigration(m.cfg.BroadcastThreshold) {
		m.Stats.SuppressedRegBytes += 9 * n
		return
	}
	m.Stats.UpdateBusBytes += 9 * n
}

// fill inserts line into an L1 after its miss and accounts the
// broadcast to the inactive L1 copies (§2.3).
func (r refSink) fill(l1 *cache.SetAssoc, line mem.Line) {
	m := r.m
	l1.InsertProbed(line, 0)
	if m.cfg.Migration != nil {
		m.Stats.L1BroadcastBytes += uint64(m.cfg.Cores-1) << m.cfg.LineShift
	}
}

func (r refSink) Access(addr mem.Addr, kind mem.Kind) {
	m := r.m
	line := mem.LineOf(addr, m.cfg.LineShift)
	m.refs.Inc()
	switch kind {
	case mem.IFetch:
		m.Stats.IFetches++
		if _, ok := m.il1.Probe(line); ok {
			return
		}
		m.Stats.IL1Misses++
		m.l2c.Eval(line)
		m.request(line, false, false)
		r.fill(m.il1, line)
	case mem.Load, mem.PtrLoad:
		m.Stats.Loads++
		if _, ok := m.dl1.Probe(line); ok {
			return
		}
		m.Stats.DL1Misses++
		m.l2c.Eval(line)
		m.request(line, false, kind == mem.PtrLoad)
		r.fill(m.dl1, line)
	case mem.Store:
		m.Stats.Stores++
		if m.cfg.Migration != nil {
			m.Stats.UpdateBusBytes += 16
		}
		m.l2c.Eval(line)
		if _, ok := m.dl1.Probe(line); ok {
			m.storeThrough(line)
			return
		}
		m.Stats.DL1Misses++
		m.request(line, true, false)
	}
}

// referenceConfigs are the machine configurations the batch kernel is
// compared against the reference kernel on: both modes, every policy,
// both affinity-table kinds, and each optional extension that adds
// work to the slow path or the instruction records.
func referenceConfigs() map[string]Config {
	mig := func(edit func(*Config)) Config {
		cfg := MigrationConfig()
		edit(&cfg)
		return cfg
	}
	scenario := func(policy, topology string) Config {
		cfg, err := MigrationConfigScenario(4, policy, topology)
		if err != nil {
			panic(err)
		}
		return cfg
	}
	pf := prefetch.Default()
	return map[string]Config{
		"normal":      NormalConfig(),
		"migration":   MigrationConfig(),
		"migration-8": MigrationConfigN(8),
		"numa":        scenario("numa", "ring"),
		"never":       scenario("never", ""),
		"unbounded": mig(func(c *Config) {
			mc := *c.Migration
			mc.TableEntries = 0
			c.Migration = &mc
		}),
		"prefetch":  mig(func(c *Config) { c.Prefetch = &pf }),
		"broadcast": mig(func(c *Config) { c.BroadcastThreshold = 0.25 }),
	}
}
