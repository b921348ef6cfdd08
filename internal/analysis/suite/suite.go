// Package suite assembles the emlint analyzers and encodes which
// packages each one patrols. The scope lives here — in the driver
// layer, not the analyzers — so golden tests can run an analyzer on
// any fixture package while cmd/emlint applies the repository policy:
//
//   - nondeterminism: the result-producing packages whose output the
//     byte-identical -j contract covers (report, runner, machine,
//     affinity — cmd/ is excluded: benchreport legitimately reads the
//     wall clock to time benchmark sections); reviewed non-result
//     wall-clock reads inside the patrol carry //emlint:wallclock;
//   - snapshotcomplete and hotpath: every package (they trigger only
//     on snapshot pairs and annotations respectively);
//   - nopanic: library packages under internal/ (commands may panic
//     at top level; tests are exempt inside the analyzers);
//   - lockguard, batchparity, closecheck: every in-module package (like
//     snapshotcomplete they trigger only on annotations, so patrolling
//     everywhere costs nothing and catches annotations wherever they
//     appear);
//   - ctxflow: the concurrent service layer (service, runner, health,
//     telhttp, cmd/emsimd) — the packages whose goroutines must honour
//     drain/shutdown. The batch kernels and report code spawn nothing,
//     and cmd/emsim's top-level goroutines die with the process.
package suite

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/batchparity"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/nondeterminism"
	"repro/internal/analysis/nopanic"
	"repro/internal/analysis/snapshotcomplete"
)

// ModulePath is the module all emlint policy is anchored to.
const ModulePath = "repro"

// All lists every emlint analyzer in reporting order.
var All = []*analysis.Analyzer{
	nondeterminism.Analyzer,
	snapshotcomplete.Analyzer,
	hotpath.Analyzer,
	nopanic.Analyzer,
	lockguard.Analyzer,
	batchparity.Analyzer,
	ctxflow.Analyzer,
	closecheck.Analyzer,
}

// resultPackages are the packages whose outputs feed tables, figures
// and experiment results — the determinism contract's surface. The
// service layer is included because its content-addressed cache is only
// sound while its job bodies stay deterministic; the store and health
// packages because they sit on the result path (stored bytes are served
// as results, and the backoff jitter lives next to probe code — its one
// sanctioned time.Now read is annotated //emlint:wallclock). The batch
// pipeline packages (mem, trace, cache) joined when the columnar hot
// path landed: batch assembly, trace decoding and cache indexing all
// sit directly on the event stream every result is computed from.
// The migration package joined when the policy layer made it
// pluggable: every policy's trigger/target decisions feed the
// tournament and multiprogram tables directly, so a wall-clock or
// map-order read there would break byte identity for non-default
// scenarios. The sampling package joined with emsim -sample: its
// fingerprints, medoid choices and reconstructed estimates are the
// result for sampled runs — a map-order iteration or wall-clock read
// anywhere in that pipeline would break the serial == -j N byte
// identity the sampled report promises.
var resultPackages = map[string]bool{
	ModulePath + "/internal/report":    true,
	ModulePath + "/internal/runner":    true,
	ModulePath + "/internal/machine":   true,
	ModulePath + "/internal/affinity":  true,
	ModulePath + "/internal/migration": true,
	ModulePath + "/internal/service":   true,
	ModulePath + "/internal/store":     true,
	ModulePath + "/internal/health":    true,
	ModulePath + "/internal/mem":       true,
	ModulePath + "/internal/trace":     true,
	ModulePath + "/internal/cache":     true,
	ModulePath + "/internal/sampling":  true,
	ModulePath + "/internal/run":       true, // the one event stream every CLI, service and sampled result is numbered on
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
	if resultPackages[pkgPath] {
		as = append(as, nondeterminism.Analyzer)
	}
	as = append(as, snapshotcomplete.Analyzer, hotpath.Analyzer)
	if strings.HasPrefix(pkgPath, ModulePath+"/internal/") {
		as = append(as, nopanic.Analyzer)
	}
	as = append(as, lockguard.Analyzer, batchparity.Analyzer)
	if ctxPackages[pkgPath] {
		as = append(as, ctxflow.Analyzer)
	}
	as = append(as, closecheck.Analyzer)
	return as
}
