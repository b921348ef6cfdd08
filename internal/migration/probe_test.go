package migration

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestPolicyProbesAndAccessors: every registered policy wires probes,
// exposes its request count as a telemetry view, and answers the small accessor surface
// (Active, Ways, TableDropped, Splitter, WeightedCost) consistently.
func TestPolicyProbesAndAccessors(t *testing.T) {
	topo, err := NewTopology("cluster", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, Table2Config(), topo)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		reg := telemetry.NewRegistry()
		requests, err := reg.View("requests", p.Counters().Requests)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProbes(Probes{MigrationGap: reg.MustHistogram("gap")})

		g := trace.NewCircular(24 << 10)
		const refs = 100_000
		for i := 0; i < refs; i++ {
			p.OnRequest(mem.Line(g.Next()))
			p.OnL2Miss(false)
		}
		if got := requests.Value(); got != refs {
			t.Errorf("%s: requests probe %d, want %d", name, got, refs)
		}
		if a := p.Active(); a < 0 || a >= p.Ways() {
			t.Errorf("%s: Active() = %d outside [0, %d)", name, a, p.Ways())
		}
		if d := p.TableDropped(); d != 0 {
			t.Errorf("%s: TableDropped() = %d on an uncapped table", name, d)
		}
		if c, ok := p.(*Controller); ok {
			if c.Splitter() == nil {
				t.Errorf("%s: Splitter() is nil", name)
			}
			if c.WeightedCost < float64(c.Migrations) {
				t.Errorf("%s: WeightedCost %g below %d migrations", name, c.WeightedCost, c.Migrations)
			}
			if (c.Counters().Deferred != nil) != (name == PolicyNuma) {
				t.Errorf("%s: Deferred counter exposed = %v", name, c.Counters().Deferred != nil)
			}
		}
	}
}

// TestConfigForCores: the §3.5 scaling rule — affinity capacity tracks
// the aggregate L2 — and the supported core counts.
func TestConfigForCores(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		cfg, err := ConfigForCores(cores)
		if err != nil {
			t.Fatalf("ConfigForCores(%d): %v", cores, err)
		}
		if cfg.TableEntries != 2048*cores {
			t.Errorf("ConfigForCores(%d): TableEntries = %d, want %d", cores, cfg.TableEntries, 2048*cores)
		}
		if cfg.Split.Ways != cores {
			t.Errorf("ConfigForCores(%d): Split.Ways = %d", cores, cfg.Split.Ways)
		}
		must := MustConfigForCores(cores)
		if must != cfg {
			t.Errorf("MustConfigForCores(%d) diverges from ConfigForCores", cores)
		}
	}
	if _, err := ConfigForCores(3); err == nil {
		t.Fatal("ConfigForCores(3) accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustConfigForCores(5) did not panic")
		}
	}()
	MustConfigForCores(5)
}

// TestTopologyValidateErrors: every malformation the matrix validator
// guards against.
func TestTopologyValidateErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		topo Topology
		want string
	}{
		{"wrong size", Topology{Name: "t", Dist: [][]float64{{0, 1}, {1, 0}}}, "covers 2 cores"},
		{"ragged row", Topology{Name: "t", Dist: [][]float64{{0, 1, 1, 1}, {1, 0}, {1, 1, 0, 1}, {1, 1, 1, 0}}}, "row 1"},
		{"nonzero diagonal", func() Topology {
			u := *NewUniformTopology(4)
			u.Dist[2][2] = 3
			return u
		}(), "diagonal must be 0"},
		{"negative distance", func() Topology {
			u := *NewUniformTopology(4)
			u.Dist[0][1] = -1
			return u
		}(), "want positive finite"},
	} {
		err := c.topo.Validate(4)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := NewUniformTopology(4).Validate(4); err != nil {
		t.Errorf("uniform matrix rejected: %v", err)
	}
}

// TestValidTopology mirrors ValidPolicy: "" is the default, registered
// names pass, junk fails.
func TestValidTopology(t *testing.T) {
	for _, name := range append(TopologyNames(), "", "Cluster") {
		if !ValidTopology(name) {
			t.Errorf("ValidTopology(%q) = false", name)
		}
	}
	if ValidTopology("hypercube") {
		t.Error("ValidTopology accepted junk")
	}
}
