package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

// The oracle: an independent model of the machine, written from the
// paper's §2.1-§3.4 rather than from the kernel. It shares no code with
// Group.AccessBatch, request, fetch, storeThrough or the owner index:
// its caches are naive per-set LRU lists (skewed ones place each way's
// line at an explicit cache.SkewIndex), every L2 has its own model, the
// L1s are per machine, and its coherence scans every copy of a line.
// Only the migration policies and the prefetcher are the real ones —
// they are the decisions under test, not the machine. TestOracle drives
// it beside Machine and Group and compares statistics, active cores,
// cache contents and policy state, and asserts §2.1's single
// modified copy after every request.

// oEntry is one resident line of an oracle cache.
type oEntry struct {
	line  mem.Line
	flags uint8
	used  uint64 // last-use tick (skewed placement only)
	valid bool
}

// oCache is the naive cache model. Non-skewed, each set is an LRU list
// with the most recently used line first. Skewed, way w of line sits
// at set SkewIndex(w, line): the line is found by probing each way's
// set, and a fill takes the first empty candidate in way order, else
// the least recently used candidate.
type oCache struct {
	geo   cache.Geometry
	sets  [][]oEntry // non-skewed: sets[set], MRU first
	ways  [][]oEntry // skewed: ways[way][set]
	clock uint64
}

func newOCache(geo cache.Geometry) *oCache {
	c := &oCache{geo: geo}
	n := 1 << geo.SetsLog2
	if geo.Skewed {
		c.ways = make([][]oEntry, geo.Ways)
		for w := range c.ways {
			c.ways[w] = make([]oEntry, n)
		}
	} else {
		c.sets = make([][]oEntry, n)
	}
	return c
}

func (c *oCache) set(line mem.Line) int { return int(uint64(line) & (1<<c.geo.SetsLog2 - 1)) }

// find returns line's entry, or nil; it does not count as a use.
func (c *oCache) find(line mem.Line) *oEntry {
	if c.geo.Skewed {
		for w := range c.ways {
			e := &c.ways[w][cache.SkewIndex(w, line, c.geo.SetsLog2)]
			if e.valid && e.line == line {
				return e
			}
		}
		return nil
	}
	s := c.sets[c.set(line)]
	for i := range s {
		if s[i].line == line {
			return &s[i]
		}
	}
	return nil
}

// use looks line up and, on a hit, makes it the most recently used.
// The returned entry stays valid until the next call on this cache.
func (c *oCache) use(line mem.Line) *oEntry {
	if c.geo.Skewed {
		e := c.find(line)
		if e != nil {
			c.clock++
			e.used = c.clock
		}
		return e
	}
	si := c.set(line)
	s := c.sets[si]
	for i := range s {
		if s[i].line == line {
			hit := s[i]
			copy(s[1:i+1], s[:i])
			s[0] = hit
			return &s[0]
		}
	}
	return nil
}

// fill inserts line (absent) as the most recently used and returns the
// line it displaced, if any.
func (c *oCache) fill(line mem.Line, flags uint8) (oEntry, bool) {
	c.clock++
	in := oEntry{line: line, flags: flags, used: c.clock, valid: true}
	if c.geo.Skewed {
		var victim *oEntry
		for w := range c.ways {
			e := &c.ways[w][cache.SkewIndex(w, line, c.geo.SetsLog2)]
			if !e.valid {
				victim = e
				break
			}
			if victim == nil || e.used < victim.used {
				victim = e
			}
		}
		old := *victim
		*victim = in
		return old, old.valid
	}
	si := c.set(line)
	s := c.sets[si]
	var old oEntry
	if len(s) == c.geo.Ways {
		old = s[len(s)-1]
		s = s[:len(s)-1]
	}
	c.sets[si] = append([]oEntry{in}, s...)
	return old, old.valid
}

// content returns every resident line with its flags.
func (c *oCache) content() map[mem.Line]uint8 {
	out := map[mem.Line]uint8{}
	for _, list := range c.sets {
		for _, e := range list {
			out[e.line] = e.flags
		}
	}
	for _, way := range c.ways {
		for _, e := range way {
			if e.valid {
				out[e.line] = e.flags
			}
		}
	}
	return out
}

// machineContent is content for one of the machine's caches.
func machineContent(c *cache.SetAssoc) map[mem.Line]uint8 {
	st := c.State()
	out := map[mem.Line]uint8{}
	for f, line := range st.Lines {
		if st.Valid[f] {
			out[line] = st.Flags[f]
		}
	}
	return out
}

// oChip is what the programs of a chip share: the per-core L2s (the L3
// behind them is infinite, as the paper assumes).
type oChip struct {
	l2 []*oCache
}

func newOChip(cfg Config) *oChip {
	ch := &oChip{}
	for c := 0; c < cfg.Cores; c++ {
		ch.l2 = append(ch.l2, newOCache(cfg.L2))
	}
	return ch
}

// oMachine is one program on a chip: its own mirrored L1s, policy,
// prefetcher, active core and counts.
type oMachine struct {
	t        *testing.T
	cfg      Config
	chip     *oChip
	il1, dl1 *oCache
	pol      migration.Policy
	pf       *prefetch.Prefetcher
	active   int
	st       Stats
	refs     uint64
}

func newOMachine(t *testing.T, cfg Config, chip *oChip) *oMachine {
	o := &oMachine{t: t, cfg: cfg, chip: chip, il1: newOCache(cfg.IL1), dl1: newOCache(cfg.DL1)}
	if cfg.Migration != nil {
		pol, err := migration.NewPolicy(cfg.Policy, *cfg.Migration, cfg.Topology)
		if err != nil {
			t.Fatal(err)
		}
		o.pol = pol
	}
	if cfg.Prefetch != nil {
		o.pf = prefetch.New(*cfg.Prefetch)
	}
	return o
}

const oPrefetched = uint8(1) << 7 // an L2 line a demand request has not touched yet

// instr retires n instructions. In migration mode their register
// updates cost ~9 bytes each on the update bus (§2.3), unless §6's
// threshold finds no migration near and keeps them off it.
func (o *oMachine) instr(n uint64) {
	o.st.Instructions += n
	if o.cfg.Migration == nil {
		return
	}
	if o.cfg.BroadcastThreshold > 0 && !o.pol.NearMigration(o.cfg.BroadcastThreshold) {
		o.st.SuppressedRegBytes += 9 * n
		return
	}
	o.st.UpdateBusBytes += 9 * n
}

// access is one reference through the L1s (§2.3: one mirrored copy, a
// fill broadcast to the inactive L1s; the DL1 is write-through and
// non-write-allocate).
func (o *oMachine) access(addr mem.Addr, kind mem.Kind) {
	o.refs++
	line := mem.Line(uint64(addr) >> o.cfg.LineShift)
	mig := o.cfg.Migration != nil
	switch kind {
	case mem.IFetch, mem.Load, mem.PtrLoad:
		l1 := o.dl1
		if kind == mem.IFetch {
			o.st.IFetches++
			l1 = o.il1
		} else {
			o.st.Loads++
		}
		if l1.use(line) != nil {
			return
		}
		if kind == mem.IFetch {
			o.st.IL1Misses++
		} else {
			o.st.DL1Misses++
		}
		o.request(line, false, kind == mem.PtrLoad)
		l1.fill(line, 0)
		if mig {
			o.st.L1BroadcastBytes += uint64(o.cfg.Cores-1) << o.cfg.LineShift
		}
	case mem.Store:
		o.st.Stores++
		if mig {
			o.st.UpdateBusBytes += 16
		}
		if o.dl1.use(line) != nil {
			o.writeThrough(line)
			return
		}
		o.st.DL1Misses++
		o.request(line, true, false)
	}
}

// migrate moves execution to core.
func (o *oMachine) migrate(core int) {
	o.st.Migrations++
	o.active = core
	if o.cfg.BroadcastThreshold > 0 {
		o.st.UpdateBusBytes += RegisterSpillBytes
	}
}

// hitActive services line from the active L2 if it holds it.
func (o *oMachine) hitActive(line mem.Line, store bool) bool {
	e := o.chip.l2[o.active].use(line)
	if e == nil {
		return false
	}
	o.st.L2Hits++
	if e.flags&oPrefetched != 0 {
		e.flags &^= oPrefetched
		o.st.PrefetchUseful++
	}
	if store {
		o.write(line)
	}
	return true
}

// request is an L1-miss request: the controller sees it, and with L2
// filtering may migrate only when the active L2 misses it (§3.4).
func (o *oMachine) request(line mem.Line, store, ptr bool) {
	if o.pol != nil {
		if core, ok := o.pol.OnRequest(line); ok {
			o.migrate(core)
		}
	}
	if o.hitActive(line, store) {
		o.checkCopies(line)
		return
	}
	if o.pol != nil {
		if core, ok := o.pol.OnL2Miss(ptr); ok {
			o.migrate(core)
			if o.hitActive(line, store) {
				o.st.L2HitsAfterMigration++
				o.checkCopies(line)
				return
			}
		}
	}
	o.st.L2Misses++
	o.load(line, store)
	o.prefetch(line)
	o.checkCopies(line)
}

// writeThrough is a DL1-hit store: the active L2 is updated, allocating
// on a miss (§2.1).
func (o *oMachine) writeThrough(line mem.Line) {
	if e := o.chip.l2[o.active].use(line); e != nil {
		o.write(line)
		o.checkCopies(line)
		return
	}
	o.st.WriteThroughL2Misses++
	o.load(line, true)
	o.checkCopies(line)
}

// write marks the active core's copy modified and resets the bit on
// every other copy, which stays valid (§2.1: the update bus refreshes
// inactive copies).
func (o *oMachine) write(line mem.Line) {
	for c, l2 := range o.chip.l2 {
		if e := l2.find(line); e != nil {
			if c == o.active {
				e.flags |= cache.FlagModified
			} else {
				e.flags &^= cache.FlagModified
			}
		}
	}
}

// load fills the active L2 after a miss: a modified remote copy is
// forwarded and written back at once, a clean one cannot be forwarded
// (§2.1) and comes from the L3.
func (o *oMachine) load(line mem.Line, store bool) {
	for c, l2 := range o.chip.l2 {
		if c == o.active {
			continue
		}
		if e := l2.find(line); e != nil && e.flags&cache.FlagModified != 0 {
			e.flags &^= cache.FlagModified
			o.st.L2ToL2++
			o.st.L3Writebacks++
			break
		}
	}
	var flags uint8
	if store {
		flags = cache.FlagModified
	}
	if v, ok := o.chip.l2[o.active].fill(line, flags); ok && v.flags&cache.FlagModified != 0 {
		o.st.L3Writebacks++
	}
	if store {
		o.write(line)
	}
}

// prefetch trains the stream prefetcher on a demand miss and fills its
// predictions into the active L2.
func (o *oMachine) prefetch(line mem.Line) {
	if o.pf == nil {
		return
	}
	l2 := o.chip.l2[o.active]
	for _, pl := range o.pf.OnMiss(line) {
		if l2.find(pl) != nil {
			continue
		}
		o.st.PrefetchIssued++
		if v, ok := l2.fill(pl, oPrefetched); ok && v.flags&cache.FlagModified != 0 {
			o.st.L3Writebacks++
		}
	}
}

// checkCopies asserts §2.1's rule on line after a request: "at most a
// single copy of the line can be marked modified at any time".
func (o *oMachine) checkCopies(line mem.Line) {
	n := 0
	for _, l2 := range o.chip.l2 {
		if e := l2.find(line); e != nil && e.flags&cache.FlagModified != 0 {
			n++
		}
	}
	if n > 1 {
		o.t.Fatalf("oracle: line %#x has %d modified copies", line, n)
	}
}

// deliver feeds one batch record by record, rebased by offset.
func (o *oMachine) deliver(b *mem.Batch, offset mem.Addr) {
	for i, k := range b.Kind {
		if k == mem.KindInstr {
			o.instr(uint64(b.Addr[i]))
			continue
		}
		if k > uint8(mem.PtrLoad) {
			o.refs++ // an unknown kind counts a reference and nothing else
			continue
		}
		o.access(b.Addr[i]+offset, mem.Kind(k))
	}
}

// compareOracle reports every way m has diverged from o: statistics,
// reference count, active core, the content of each cache and the
// policy state. The machine's modified-owner index must also agree
// with its own L2 flags.
func compareOracle(t *testing.T, what string, m *Machine, o *oMachine) {
	t.Helper()
	if m.Stats != o.st {
		t.Fatalf("%s: stats diverge from the oracle:\nmachine: %+v\noracle:  %+v", what, m.Stats, o.st)
	}
	if got := m.refs.Value(); got != o.refs {
		t.Fatalf("%s: refs %d, oracle %d", what, got, o.refs)
	}
	if m.active != o.active {
		t.Fatalf("%s: active core %d, oracle %d", what, m.active, o.active)
	}
	type cachePair struct {
		name string
		m    *cache.SetAssoc
		o    *oCache
	}
	caches := []cachePair{{"IL1", m.il1, o.il1}, {"DL1", m.dl1, o.dl1}}
	for c := range m.l2 {
		caches = append(caches, cachePair{fmt.Sprintf("L2[%d]", c), m.l2[c], o.chip.l2[c]})
	}
	for _, c := range caches {
		if got, want := machineContent(c.m), c.o.content(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s content diverges from the oracle (%d vs %d lines)", what, c.name, len(got), len(want))
		}
	}
	checkOwnerIndex(t, what, m)
	checkAffinityPlacement(t, what, m)
	if m.pol != nil {
		got, err := m.pol.PolicyState()
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.pol.PolicyState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: policy state diverges from the oracle", what)
		}
	}
}

// checkAffinityPlacement asserts that every entry of a bounded
// affinity cache sits where §3.5's skewed indexing puts it: way w of
// line at set cache.SkewIndex(w, line). The oracle runs the real
// policy, so this is what it can say about the table's frames; the
// affinity package's own oracle checks the age policy.
func checkAffinityPlacement(t *testing.T, what string, m *Machine) {
	t.Helper()
	if m.ctrl == nil {
		return
	}
	ps, err := m.pol.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	tc := ps.Controller.Table.Cache
	if tc == nil {
		return
	}
	for f, line := range tc.Lines {
		if !tc.Valid[f] {
			continue
		}
		w, set := f>>tc.SetsLog2, f&(1<<tc.SetsLog2-1)
		if got := int(cache.SkewIndex(w, line, tc.SetsLog2)); got != set || tc.Age[f] > 3 {
			t.Fatalf("%s: affinity entry %#x in way %d set %d (age %d); its way-%d set is %d", what, line, w, set, tc.Age[f], w, got)
		}
	}
}

// checkOwnerIndex asserts that the machine's modified-owner index holds
// exactly the modified lines of its L2s, each under its one owner.
func checkOwnerIndex(t *testing.T, what string, m *Machine) {
	t.Helper()
	want := map[mem.Line]int{}
	for c, l2 := range m.l2 {
		for line, f := range machineContent(l2) {
			if f&cache.FlagModified == 0 {
				continue
			}
			if prev, dup := want[line]; dup {
				t.Fatalf("%s: line %#x modified in L2[%d] and L2[%d]", what, line, prev, c)
			}
			want[line] = c
		}
	}
	if m.own == nil {
		return
	}
	if m.own.n != len(want) {
		t.Fatalf("%s: owner index holds %d lines, the L2s %d modified lines", what, m.own.n, len(want))
	}
	for line, c := range want {
		if i, ok := m.own.find(line); !ok || m.own.owner(i) != c {
			t.Fatalf("%s: owner index misses line %#x at core %d (present %v)", what, line, c, ok)
		}
	}
}

// oracleConfigs are the configurations the oracle checks: both modes,
// the Michaud controller at every supported core count, the other
// policies, both affinity-table kinds and each optional extension.
func oracleConfigs() map[string]Config {
	mig := func(cores int, edit func(*Config)) Config {
		cfg := MigrationConfigN(cores)
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
	none := func(*Config) {}
	return map[string]Config{
		"normal":    NormalConfig(),
		"michaud-2": mig(2, none),
		"michaud-4": mig(4, none),
		"michaud-8": mig(8, none),
		"numa-ring": scenario("numa", "ring"),
		"never":     scenario("never", ""),
		"unbounded": mig(4, func(c *Config) { mc := *c.Migration; mc.TableEntries = 0; c.Migration = &mc }),
		"prefetch":  mig(4, func(c *Config) { c.Prefetch = &pf }),
		"broadcast": mig(4, func(c *Config) { c.BroadcastThreshold = 0.25 }),
		"ptrloads":  mig(4, func(c *Config) { mc := *c.Migration; mc.PointerLoadsOnly = true; c.Migration = &mc }),
		"nofilter":  mig(4, func(c *Config) { mc := *c.Migration; mc.NoL2Filtering = true; c.Migration = &mc }),
	}
}

// batchRecorder keeps owned copies of every batch it receives.
type batchRecorder struct{ batches []*mem.Batch }

func (r *batchRecorder) AccessBatch(b *mem.Batch) {
	r.batches = append(r.batches, &mem.Batch{
		Addr: append([]mem.Addr(nil), b.Addr...),
		Kind: append([]uint8(nil), b.Kind...),
	})
}

// recordBatches captures a stream as the batches a default mem.Batcher
// delivers.
func recordBatches(produce func(mem.Sink)) []*mem.Batch {
	var r batchRecorder
	ba := mem.NewBatcher(&r, 0)
	produce(ba)
	ba.Flush()
	return r.batches
}

// seededMix is a load/store/ifetch stream over a working set that
// overflows one L2, with reuse at several distances, pointer loads,
// unknown kind tags and instruction records.
func seededMix(seed uint64, refs int) func(mem.Sink) {
	return func(s mem.Sink) {
		rng := trace.NewRNG(seed)
		sweep := trace.NewCircular(20 << 10)
		for i := 0; i < refs; i++ {
			var line mem.Line
			switch rng.Uint64n(4) {
			case 0:
				line = mem.Line(rng.Uint64n(64 << 10))
			case 1:
				line = mem.Line(rng.Uint64n(512))
			default:
				line = mem.Line(sweep.Next())
			}
			kind := mem.Load
			switch r := rng.Uint64n(32); {
			case r < 8:
				kind = mem.Store
			case r < 12:
				kind = mem.IFetch
			case r < 14:
				kind = mem.PtrLoad
			case r == 14:
				kind = mem.Kind(7)
			}
			s.Access(mem.AddrOf(line, 6)|mem.Addr(rng.Uint64n(64)), kind)
			if i%3 == 0 {
				s.Instr(1 + rng.Uint64n(4))
			}
		}
	}
}

// oracleStreams returns the named streams the oracle runs on, as
// recorded batches: seeded mixes, and every registered workload cut to
// its first records after a small instruction budget (under -short,
// fewer and shorter).
func oracleStreams(t *testing.T) []oracleStream {
	records, instr := 120_000, uint64(400_000)
	names := suite.Names()
	if testing.Short() {
		records, instr = 40_000, 150_000
		names = []string{"181.mcf", "em3d", "179.art"}
	}
	out := []oracleStream{
		{"mix-1", recordBatches(seededMix(1, records))},
		{"mix-2", recordBatches(seededMix(2, records))},
	}
	for _, name := range names {
		w, err := suite.Registry().New(name)
		if err != nil {
			t.Fatal(err)
		}
		bs := recordBatches(func(s mem.Sink) { w.Run(s, instr) })
		for n, i := 0, 0; i < len(bs); i++ {
			if n += bs[i].Len(); n >= records {
				bs = bs[:i+1]
				break
			}
		}
		out = append(out, oracleStream{name, bs})
	}
	return out
}

type oracleStream struct {
	name    string
	batches []*mem.Batch
}

// TestOracle is the independent check of the machine: every stream
// through every configuration, with the configured machine sharing its
// L1 front end with the 1-core baseline in one Group (as run.Pair does)
// and each member compared with its own oracle after every batch (the
// statistics) and at the end (everything). A five-member group, the
// shape of a tournament pass, is checked the same way. A 2-program Cluster with
// the paper's migration chip is checked the same way, its oracle
// programs sharing one oracle chip.
func TestOracle(t *testing.T) {
	configs := oracleConfigs()
	streams := oracleStreams(t)
	totals := map[string]Stats{}
	for _, st := range streams {
		batches := st.batches
		t.Run(st.name, func(t *testing.T) {
			for name, cfg := range configs {
				if testing.Short() && st.name != "mix-1" && name != "michaud-4" && name != "normal" {
					continue
				}
				t.Run(name, func(t *testing.T) {
					totals[name] = AddStats(totals[name], oracleGroup(t, batches, NormalConfig(), cfg)[1])
				})
			}
			if !testing.Short() || st.name == "mix-1" {
				// A tournament-shaped group: the baseline and several
				// policies, one of them gated, behind one L1 front end.
				t.Run("group", func(t *testing.T) {
					oracleGroup(t, batches, NormalConfig(), configs["michaud-4"], configs["numa-ring"],
						configs["never"], configs["broadcast"])
				})
				// Members of three L2 geometries behind one L1 front end:
				// each geometry's members share one candidate evaluation.
				t.Run("mixed-l2", func(t *testing.T) { oracleGroup(t, batches, mixedL2Group()...) })
			}
			t.Run("cluster-2", func(t *testing.T) { oracleCluster(t, MigrationConfig(), batches) })
		})
	}
	// Every path the configurations add must have run somewhere, or
	// the comparison proves little about it.
	if t.Failed() || testing.Short() {
		return
	}
	for name, cfg := range configs {
		st := totals[name]
		if st.L2Misses == 0 || st.L3Writebacks == 0 ||
			(cfg.Prefetch != nil && st.PrefetchUseful == 0) ||
			(cfg.BroadcastThreshold > 0 && st.SuppressedRegBytes == 0) ||
			(cfg.Migration != nil && cfg.Policy != migration.PolicyNever && (st.Migrations == 0 || st.L2ToL2 == 0 || st.WriteThroughL2Misses == 0)) ||
			// Without L2 filtering execution moves on the request, before
			// the active L2 is probed, so no hit follows a migration.
			(cfg.Migration != nil && cfg.Policy != migration.PolicyNever && !cfg.Migration.NoL2Filtering && st.L2HitsAfterMigration == 0) {
			t.Errorf("%s: the streams leave a path of the configuration unexercised: %+v", name, st)
		}
	}
}

// mixedL2Group is a group's configurations over three L2 geometries:
// the paper's skewed L2, a set-indexed one and a smaller skewed one,
// each shared by a normal and a migration member.
func mixedL2Group() []Config {
	var cfgs []Config
	for _, l2 := range []cache.Geometry{
		PaperL2(),
		cache.GeometryFor(256<<10, 6, 8, false),
		cache.GeometryFor(128<<10, 6, 4, true),
	} {
		normal, mig := NormalConfig(), MigrationConfig()
		normal.L2, mig.L2 = l2, l2
		cfgs = append(cfgs, normal, mig)
	}
	return cfgs
}

// oracleGroup checks one Group over cfgs, each member against its own
// oracle, and returns the members' statistics in config order.
func oracleGroup(t *testing.T, batches []*mem.Batch, cfgs ...Config) []Stats {
	g, err := NewGroup(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	ms := g.Machines()
	var oms []*oMachine
	for _, cfg := range cfgs {
		oms = append(oms, newOMachine(t, cfg, newOChip(cfg)))
	}
	for i, b := range batches {
		g.AccessBatch(b)
		for j, o := range oms {
			o.deliver(b, 0)
			if ms[j].Stats != o.st {
				t.Fatalf("member %d, batch %d: stats diverge from the oracle:\nmachine: %+v\noracle:  %+v", j, i, ms[j].Stats, o.st)
			}
		}
	}
	out := make([]Stats, len(ms))
	for j, o := range oms {
		compareOracle(t, fmt.Sprintf("member %d", j), ms[j], o)
		out[j] = ms[j].Stats
	}
	return out
}

// oracleCluster checks a 2-program Cluster, delivered in its round
// robin, against two oracle programs sharing one oracle chip. The
// second program runs the stream backwards by batch, so the programs
// differ.
func oracleCluster(t *testing.T, cfg Config, batches []*mem.Batch) {
	c, err := NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	chip := newOChip(cfg)
	oms := []*oMachine{newOMachine(t, cfg, chip), newOMachine(t, cfg, chip)}
	scratch := mem.NewBatch(0)
	for i := range batches {
		for p := 0; p < 2; p++ {
			src := batches[i]
			if p == 1 {
				src = batches[len(batches)-1-i]
			}
			scratch.Addr = append(scratch.Addr[:0], src.Addr...)
			scratch.Kind = append(scratch.Kind[:0], src.Kind...)
			c.apply(p, scratch)
			oms[p].deliver(src, ProgramOffset(p))
		}
	}
	for p, o := range oms {
		compareOracle(t, fmt.Sprintf("program %d", p), c.Program(p), o)
	}
}
