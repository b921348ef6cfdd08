package run

import (
	"testing"
)

// TestSpecValidate: every rejection the surfaces make on a run spec.
// Wire requests (emsimd) treat a zero field as omitted and validate the
// normalized spec; the CLIs pass explicit flag values and validate the
// spec as given, where a zero core count or interval is an error.
func TestSpecValidate(t *testing.T) {
	for _, c := range []struct {
		spec      Spec
		normalize bool
		ok        bool
	}{
		// Wire requests.
		{Spec{Workload: "mst", Cores: 3}, true, false},
		{Spec{Workload: "no-such-workload"}, true, false},
		{Spec{}, true, false},
		{Spec{Workload: "mst", Policy: "no-such-policy"}, true, false},
		{Spec{Workload: "mst", Topology: "no-such-topology"}, true, false},
		{Spec{Workload: "mst", Programs: []string{"em3d"}}, true, false}, // mutually exclusive
		{Spec{Programs: []string{"no-such-workload"}}, true, false},
		// Sampling parameters without sample=true would silently do
		// nothing — rejected so a typo isn't a different cache entry.
		{Spec{Workload: "mst", SampleInterval: 40_000}, true, false},
		{Spec{Workload: "mst", SampleClusters: 4}, true, false},
		{Spec{Workload: "mst", SampleSeed: 7}, true, false},
		{Spec{Workload: "mst", SampleWarmup: 2}, true, false},
		{Spec{Programs: []string{"mst", "em3d"}, Sample: true}, true, false}, // mutually exclusive
		{Spec{Workload: "mst", Sample: true, SampleClusters: -1}, true, false},
		{Spec{Workload: "mst", Sample: true, SampleWarmup: -1}, true, false},
		{Spec{Workload: "mst"}, true, true},
		{Spec{Workload: "mst", Policy: "numa", Topology: "ring"}, true, true},
		{Spec{Programs: []string{"mst", "em3d"}}, true, true},
		{Spec{Workload: "mst", Sample: true}, true, true},
		{Spec{Workload: "mst", Sample: true, SampleInterval: 40_000, SampleClusters: 4, SampleWarmup: 3}, true, true},

		// CLI flag values: a bad -cores used to survive until a panic
		// deep inside the migration controller.
		{Spec{Workload: "179.art", Cores: 3}, false, false},
		{Spec{Workload: "179.art", Cores: 0}, false, false},
		{Spec{Workload: "179.art", Cores: -4}, false, false},
		{Spec{Workload: "179.art", Cores: 16}, false, false},
		{Spec{Workload: "no-such-workload", Cores: 4}, false, false},
		{Spec{Workload: "179.art", Cores: 4}, false, true},
		{Spec{Workload: "179.art", Cores: 4, Policy: "michaud", Topology: "uniform"}, false, true},
		{Spec{Replay: "any.trace", Cores: 4}, false, true}, // a trace needs no workload
		// -sample-* flag values.
		{Spec{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 0, SampleClusters: 4}, false, false},
		{Spec{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 0}, false, false},
		{Spec{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4, SampleWarmup: -1}, false, false},
		{Spec{Workload: "mst", Cores: 4, Sample: true, SampleInterval: 20_000, SampleClusters: 4}, false, true},
	} {
		s := c.spec
		if c.normalize {
			s = s.Normalize()
		}
		if err := s.Validate(); (err == nil) != c.ok {
			t.Errorf("spec %+v (normalize=%v): err=%v, want ok=%v", c.spec, c.normalize, err, c.ok)
		}
	}
}

// TestSpecNormalize: omitted fields take the run defaults, spelled-out
// scenario defaults become "", and sampling defaults apply only to
// sampled specs.
func TestSpecNormalize(t *testing.T) {
	got := Spec{Workload: "mst", Policy: "michaud", Topology: "uniform"}.Normalize()
	want := Spec{Workload: "mst", Instr: DefaultInstr, Cores: DefaultCores}
	if got.Workload != want.Workload || got.Instr != want.Instr || got.Cores != want.Cores ||
		got.Policy != "" || got.Topology != "" || got.SampleInterval != 0 {
		t.Fatalf("normalized %+v, want %+v", got, want)
	}
	s := Spec{Workload: "mst", Cores: 8, Sample: true, SampleWarmup: 3}.Normalize()
	if s.Cores != 8 || s.SampleInterval != DefaultSampleInterval || s.SampleClusters != DefaultSampleClusters ||
		s.SampleSeed != DefaultSampleSeed || s.SampleWarmup != 3 {
		t.Fatalf("normalized sampled spec %+v", s)
	}
}
