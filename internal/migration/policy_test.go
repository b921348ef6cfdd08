package migration

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestPolicyRegistry: names resolve, sorted listings are stable, junk
// is rejected.
func TestPolicyRegistry(t *testing.T) {
	want := []string{"michaud", "never", "numa"}
	// The names come from a map, so one call could be sorted by chance
	// of iteration order; 64 calls cannot all be.
	for i := 0; i < 64; i++ {
		if got := PolicyNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("PolicyNames() = %v, want %v", got, want)
		}
	}
	for _, name := range append(want, "") {
		if !ValidPolicy(name) {
			t.Fatalf("ValidPolicy(%q) = false", name)
		}
		p, err := NewPolicy(name, Table2Config(), nil)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		wantName := name
		if wantName == "" {
			wantName = PolicyMichaud
		}
		if p.PolicyName() != wantName {
			t.Fatalf("PolicyName() = %q, want %q", p.PolicyName(), wantName)
		}
		if p.Ways() != 4 {
			t.Fatalf("%s: Ways() = %d, want 4", wantName, p.Ways())
		}
	}
	if ValidPolicy("nope") {
		t.Fatal("ValidPolicy accepted junk")
	}
	if _, err := NewPolicy("nope", Table2Config(), nil); err == nil {
		t.Fatal("NewPolicy accepted junk")
	}
	// Topology/ways mismatch must be rejected before construction.
	if _, err := NewPolicy("numa", Table2Config(), NewUniformTopology(8)); err == nil {
		t.Fatal("NewPolicy accepted an 8-core topology for a 4-way config")
	}
}

// TestTopologyRegistry: every registered topology builds a valid matrix
// for every supported core count; uniformity and asymmetry are where
// they should be.
func TestTopologyRegistry(t *testing.T) {
	want := []string{"cluster", "mesh", "ring", "uniform"}
	for i := 0; i < 64; i++ { // map order, as in TestPolicyRegistry
		if got := TopologyNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopologyNames() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		for _, cores := range []int{2, 4, 8} {
			topo, err := NewTopology(name, cores)
			if err != nil {
				t.Fatalf("NewTopology(%q, %d): %v", name, cores, err)
			}
			if err := topo.Validate(cores); err != nil {
				t.Fatalf("topology %q/%d invalid: %v", name, cores, err)
			}
			if topo.Cores() != cores {
				t.Fatalf("topology %q: Cores() = %d, want %d", name, topo.Cores(), cores)
			}
		}
	}
	if u, _ := NewTopology("", 4); !u.Uniform() || u.Name != TopologyUniform {
		t.Fatal(`NewTopology("") is not the uniform default`)
	}
	if c, _ := NewTopology("cluster", 4); c.Uniform() {
		t.Fatal("cluster topology claims to be uniform")
	}
	// The ring is the deliberately asymmetric one: one hop forward, N-1
	// hops back.
	ring, _ := NewTopology("ring", 4)
	if ring.Dist[0][1] != 1 || ring.Dist[1][0] != 3 {
		t.Fatalf("ring distances 0→1=%g 1→0=%g, want 1 and 3", ring.Dist[0][1], ring.Dist[1][0])
	}
	// Mesh: 2×2 grid for 4 cores, corner-to-corner is 2.
	mesh, _ := NewTopology("mesh", 4)
	if mesh.Dist[0][3] != 2 {
		t.Fatalf("mesh Dist[0][3] = %g, want 2", mesh.Dist[0][3])
	}
	if _, err := NewTopology("nope", 4); err == nil {
		t.Fatal("NewTopology accepted junk")
	}
	if _, err := NewTopology("uniform", 3); err == nil {
		t.Fatal("NewTopology accepted an odd core count")
	}
}

// drivePair feeds the same miss stream into two policies and fails the
// test at the first decision divergence. Returns the number of executed
// migrations (identical for both by construction).
func drivePair(t *testing.T, a, b Policy, refs int) uint64 {
	t.Helper()
	g := trace.NewCircular(24 << 10)
	var migs uint64
	for i := 0; i < refs; i++ {
		line := mem.Line(g.Next())
		ca, ma := a.OnRequest(line)
		cb, mb := b.OnRequest(line)
		if ca != cb || ma != mb {
			t.Fatalf("ref %d: OnRequest diverged: (%d,%v) vs (%d,%v)", i, ca, ma, cb, mb)
		}
		ca, ma = a.OnL2Miss(false)
		cb, mb = b.OnL2Miss(false)
		if ca != cb || ma != mb {
			t.Fatalf("ref %d: OnL2Miss diverged: (%d,%v) vs (%d,%v)", i, ca, ma, cb, mb)
		}
		if ma {
			migs++
		}
	}
	return migs
}

// TestNumaUniformMatchesMichaud pins the equivalence the one decide
// rests on: under the uniform topology every hysteresis threshold is
// 1, so the numa policy's decision sequence is bit-for-bit the Michaud
// controller's.
func TestNumaUniformMatchesMichaud(t *testing.T) {
	cfg := Table2Config()
	mich := mustController(t, PolicyMichaud, cfg, nil)
	numa := mustController(t, PolicyNuma, cfg, nil)
	migs := drivePair(t, mich, numa, 300_000)
	if migs == 0 {
		t.Fatal("no migrations on a splittable stream; the equivalence test is vacuous")
	}
	if numa.Deferred != 0 {
		t.Fatalf("uniform topology deferred %d migrations, want 0", numa.Deferred)
	}
	if numa.WeightedCost != float64(numa.Migrations) {
		t.Fatalf("uniform WeightedCost = %g, Migrations = %d; must match", numa.WeightedCost, numa.Migrations)
	}
	if mich.Migrations != numa.Migrations || mich.Requests != numa.Requests ||
		mich.L2MissUpdates != numa.L2MissUpdates {
		t.Fatalf("counters diverged: michaud{%d %d %d} numa{%d %d %d}",
			mich.Migrations, mich.Requests, mich.L2MissUpdates,
			numa.Migrations, numa.Requests, numa.L2MissUpdates)
	}
	if mich.NearMigration(0.5) != numa.NearMigration(0.5) {
		t.Fatal("NearMigration diverged under identical state")
	}
}

// TestNumaHysteresisDefers: under a non-uniform topology the NUMA
// policy migrates less than Michaud and accounts every withheld move.
func TestNumaHysteresisDefers(t *testing.T) {
	cfg := Table2Config()
	mich := mustController(t, PolicyMichaud, cfg, nil)
	topo, _ := NewTopology("cluster", 4)
	numa := mustController(t, PolicyNuma, cfg, topo)
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 400_000; i++ {
		line := mem.Line(g.Next())
		mich.OnRequest(line)
		numa.OnRequest(line)
		mich.OnL2Miss(false)
		numa.OnL2Miss(false)
	}
	if mich.Migrations == 0 {
		t.Fatal("michaud never migrated; hysteresis test is vacuous")
	}
	if numa.Deferred == 0 {
		t.Fatal("cluster topology never deferred a migration")
	}
	// Weighted cost must be at least the migration count (all distances
	// ≥ 1) and internally consistent with the matrix bounds.
	if numa.WeightedCost < float64(numa.Migrations) {
		t.Fatalf("WeightedCost %g below migration count %d", numa.WeightedCost, numa.Migrations)
	}
	// The cluster topology's cross-cluster distance is its largest.
	if max := topo.Dist[0][3] * float64(numa.Migrations); numa.WeightedCost > max {
		t.Fatalf("WeightedCost %g above max possible %g", numa.WeightedCost, max)
	}
}

// TestNumaStateRoundTrip: capture mid-stream, restore into a fresh
// policy, and require identical decisions from there on — including the
// in-flight hysteresis counter: the capture is taken where a move is
// pending, so a restore that drops the count decides differently.
func TestNumaStateRoundTrip(t *testing.T) {
	cfg := Table2Config()
	topo, _ := NewTopology("ring", 4)
	a := mustController(t, PolicyNuma, cfg, topo)
	g := trace.NewCircular(24 << 10)
	lines := make([]mem.Line, 400_000)
	for i := range lines {
		lines[i] = mem.Line(g.Next())
	}
	cut := 200_000
	for _, line := range lines[:cut] {
		a.OnRequest(line)
		a.OnL2Miss(false)
	}
	for ; a.pending == 0 && cut < len(lines); cut++ {
		a.OnRequest(lines[cut])
		a.OnL2Miss(false)
	}
	if a.pending == 0 {
		t.Fatal("the stream never left a move pending")
	}
	st, err := a.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != PolicyNuma {
		t.Fatalf("state name %q", st.Name)
	}
	b := mustController(t, PolicyNuma, cfg, topo)
	if err := b.SetPolicyState(st); err != nil {
		t.Fatal(err)
	}
	for i, line := range lines[cut:] {
		ca, ma := a.OnRequest(line)
		cb, mb := b.OnRequest(line)
		if ca != cb || ma != mb {
			t.Fatalf("ref %d post-restore: OnRequest diverged", i)
		}
		ca, ma = a.OnL2Miss(false)
		cb, mb = b.OnL2Miss(false)
		if ca != cb || ma != mb {
			t.Fatalf("ref %d post-restore: OnL2Miss diverged", i)
		}
	}
	if a.Migrations != b.Migrations || a.Deferred != b.Deferred || a.WeightedCost != b.WeightedCost {
		t.Fatalf("post-restore counters diverged: {%d %d %g} vs {%d %d %g}",
			a.Migrations, a.Deferred, a.WeightedCost, b.Migrations, b.Deferred, b.WeightedCost)
	}
	// Cross-policy state must be rejected, as must a state without
	// the controller shape.
	mich := mustController(t, PolicyMichaud, cfg, nil)
	ms, err := mich.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetPolicyState(ms); err == nil {
		t.Fatal("numa policy accepted michaud state")
	}
	if err := b.SetPolicyState(PolicyState{Name: PolicyNuma, Never: &NeverState{}}); err == nil {
		t.Fatal("numa policy accepted a never-shaped state")
	}
}

// TestMichaudPolicyStateRoundTrip: the michaud controller's state
// restores losslessly, with nothing of the hysteresis in flight.
func TestMichaudPolicyStateRoundTrip(t *testing.T) {
	cfg := Table2Config()
	a := mustController(t, PolicyMichaud, cfg, nil)
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 200_000; i++ {
		a.OnRequest(mem.Line(g.Next()))
		a.OnL2Miss(false)
	}
	st, err := a.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != PolicyMichaud {
		t.Fatalf("state name %q", st.Name)
	}
	b := mustController(t, PolicyMichaud, cfg, nil)
	if err := b.SetPolicyState(st); err != nil {
		t.Fatal(err)
	}
	if c := st.Controller; c.Target != -1 || c.Pending != 0 || c.Deferred != 0 || c.WeightedCost != float64(c.Migrations) {
		t.Fatalf("michaud state has hysteresis in flight: %+v", *c)
	}
	sb, err := b.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, sb) {
		t.Fatal("restored controller state differs from source")
	}
}

// TestNeverPolicy: pinned to core 0, counting but never moving.
func TestNeverPolicy(t *testing.T) {
	p, err := NewNeverPolicy(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ways() != 4 {
		t.Fatalf("ways = %d", p.Ways())
	}
	g := trace.NewCircular(24 << 10)
	for i := 0; i < 100_000; i++ {
		if core, migrated := p.OnRequest(mem.Line(g.Next())); core != 0 || migrated {
			t.Fatal("never policy moved on OnRequest")
		}
		if core, migrated := p.OnL2Miss(true); core != 0 || migrated {
			t.Fatal("never policy moved on OnL2Miss")
		}
	}
	if p.Active() != 0 || p.NearMigration(1.0) || p.TableDropped() != 0 {
		t.Fatal("never policy is not inert")
	}
	if p.Requests != 100_000 || p.L2MissUpdates != 100_000 {
		t.Fatalf("counters %d/%d, want 100000/100000", p.Requests, p.L2MissUpdates)
	}
	st, err := p.PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewNeverPolicy(4)
	if err := q.SetPolicyState(st); err != nil {
		t.Fatal(err)
	}
	if q.Requests != p.Requests || q.L2MissUpdates != p.L2MissUpdates {
		t.Fatal("never state round-trip lost counters")
	}
	for _, ways := range []int{0, 3} {
		if _, err := NewNeverPolicy(ways); err == nil {
			t.Fatalf("NewNeverPolicy accepted %d ways", ways)
		}
	}
}
