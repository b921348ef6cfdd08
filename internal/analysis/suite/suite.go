// Package suite assembles the emlint analyzers and encodes which
// packages each one patrols. The scope lives here — in the driver
// layer, not the analyzers — so golden tests can run an analyzer on
// any fixture package while cmd/emlint applies the repository policy:
//
//   - nopanic: library packages under internal/ (commands may panic
//     at top level; tests are exempt inside the analyzers);
//   - lockguard, closecheck: every in-module package (they trigger
//     only on annotations and file writes, so patrolling everywhere
//     costs nothing and catches annotations wherever they appear);
//   - ctxflow: the concurrent service layer (service, runner, health,
//     telhttp, cmd/emsimd) — the packages whose goroutines must honour
//     drain/shutdown. The batch kernels and report code spawn nothing,
//     and cmd/emsim's top-level goroutines die with the process.
package suite

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/nopanic"
)

// ModulePath is the module all emlint policy is anchored to.
const ModulePath = "repro"

// All lists every emlint analyzer in reporting order.
var All = []*analysis.Analyzer{
	nopanic.Analyzer,
	lockguard.Analyzer,
	ctxflow.Analyzer,
	closecheck.Analyzer,
}

// ctxPackages are the packages whose goroutines participate in the
// drain/shutdown protocol: spawned work must be cancellable (ctxflow).
var ctxPackages = map[string]bool{
	ModulePath + "/internal/service":           true,
	ModulePath + "/internal/runner":            true,
	ModulePath + "/internal/health":            true,
	ModulePath + "/internal/telemetry/telhttp": true,
	ModulePath + "/cmd/emsimd":                 true,
}

// InModule reports whether pkgPath belongs to this module (and is not
// a synthesised test-main package).
func InModule(pkgPath string) bool {
	if strings.HasSuffix(pkgPath, ".test") {
		return false
	}
	return pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
}

// ForPackage returns the analyzers that apply to pkgPath under the
// repository policy, or nil for out-of-module packages.
func ForPackage(pkgPath string) []*analysis.Analyzer {
	if !InModule(pkgPath) {
		return nil
	}
	var as []*analysis.Analyzer
	if strings.HasPrefix(pkgPath, ModulePath+"/internal/") {
		as = append(as, nopanic.Analyzer)
	}
	as = append(as, lockguard.Analyzer)
	if ctxPackages[pkgPath] {
		as = append(as, ctxflow.Analyzer)
	}
	as = append(as, closecheck.Analyzer)
	return as
}
