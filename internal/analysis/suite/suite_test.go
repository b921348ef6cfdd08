package suite_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/suite"
)

// TestCleanFixture asserts the negative fixture produces zero
// diagnostics under every analyzer at once.
func TestCleanFixture(t *testing.T) {
	analysistest.RunAll(t, suite.All, "testdata/src/clean")
}

func TestForPackage(t *testing.T) {
	names := func(pkg string) []string {
		var out []string
		for _, a := range suite.ForPackage(pkg) {
			out = append(out, a.Name)
		}
		return out
	}
	// Shorthand tiers: library packages get nopanic, commands do not;
	// ctxflow joins only in the concurrent service layer.
	lib := []string{"nopanic", "lockguard", "closecheck"}
	libCtx := []string{"nopanic", "lockguard", "ctxflow", "closecheck"}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"repro/internal/report", lib},
		{"repro/internal/machine", lib},
		{"repro/internal/ioutilx", lib},
		{"repro/internal/service", libCtx},
		{"repro/internal/runner", libCtx},
		{"repro/internal/health", libCtx},
		{"repro/internal/telemetry/telhttp", libCtx},
		{"repro/cmd/emsim", []string{"lockguard", "closecheck"}},
		{"repro/cmd/emsimd", []string{"lockguard", "ctxflow", "closecheck"}},
		{"repro/internal/runner.test", nil},
		{"fmt", nil},
		{"example.com/other", nil},
	}
	for _, c := range cases {
		got := names(c.pkg)
		if len(got) != len(c.want) {
			t.Errorf("ForPackage(%q) = %v, want %v", c.pkg, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ForPackage(%q) = %v, want %v", c.pkg, got, c.want)
				break
			}
		}
	}
}

func TestInModule(t *testing.T) {
	for pkg, want := range map[string]bool{
		"repro":                      true,
		"repro/internal/mem":         true,
		"repro/internal/runner.test": false,
		"reprox/internal/mem":        false,
		"fmt":                        false,
	} {
		if got := suite.InModule(pkg); got != want {
			t.Errorf("InModule(%q) = %v, want %v", pkg, got, want)
		}
	}
}
