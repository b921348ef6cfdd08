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
	// Shorthand tiers: result packages get the full battery, library
	// packages drop nondeterminism, commands drop nopanic too; ctxflow
	// joins only in the concurrent service layer.
	result := []string{"nondeterminism", "snapshotcomplete", "hotpath", "nopanic", "lockguard", "closecheck"}
	resultCtx := []string{"nondeterminism", "snapshotcomplete", "hotpath", "nopanic", "lockguard", "ctxflow", "closecheck"}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"repro/internal/report", result},
		{"repro/internal/machine", result},
		{"repro/internal/migration", result},
		{"repro/internal/cache", result},
		{"repro/internal/mem", result},
		{"repro/internal/trace", result},
		{"repro/internal/service", resultCtx},
		{"repro/internal/runner", resultCtx},
		{"repro/internal/health", resultCtx},
		{"repro/internal/telemetry/telhttp", []string{"snapshotcomplete", "hotpath", "nopanic", "lockguard", "ctxflow", "closecheck"}},
		{"repro/internal/ioutilx", []string{"snapshotcomplete", "hotpath", "nopanic", "lockguard", "closecheck"}},
		{"repro/cmd/emsim", []string{"snapshotcomplete", "hotpath", "lockguard", "closecheck"}},
		{"repro/cmd/emsimd", []string{"snapshotcomplete", "hotpath", "lockguard", "ctxflow", "closecheck"}},
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
