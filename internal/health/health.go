// Package health is the service's probe layer: named liveness and
// readiness checks assembled into Kubernetes-style /livez and /readyz
// endpoints, plus the client-side retry backoff the probes pair with.
//
// The split follows the usual contract. Liveness answers "is this
// process worth keeping alive" — it only fails when the process is
// wedged beyond recovery (worker pool dead), so an orchestrator
// restarts it. Readiness answers "should this process receive traffic
// right now" — it also fails during transient states (crash recovery
// still replaying spooled checkpoints, result store not writable,
// drain in progress), so load is routed elsewhere without killing the
// process.
package health

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Probe is one named check: nil = healthy, an error = unhealthy with a
// reason. Checks must be safe for concurrent use and fast (they run on
// every probe request).
type Probe struct {
	Name  string
	Check func() error
}

// Checker runs a fixed, ordered set of probes and serves the result
// over HTTP. Register all probes before serving; registration order is
// response order, so probe output is deterministic.
type Checker struct {
	mu sync.Mutex
	//emlint:guardedby mu
	probes []Probe
}

// NewChecker returns an empty Checker.
func NewChecker() *Checker { return &Checker{} }

// Register appends a named probe.
func (c *Checker) Register(name string, check func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes = append(c.probes, Probe{Name: name, Check: check})
}

// CheckResult is one probe's outcome in a Report.
type CheckResult struct {
	Name string `json:"name"`
	// Status is "ok" or the probe's error text.
	Status string `json:"status"`
}

// Report is the outcome of running every probe.
type Report struct {
	// OK is true when every probe passed.
	OK     bool          `json:"-"`
	Checks []CheckResult `json:"checks"`
}

// Run executes every probe in registration order.
func (c *Checker) Run() Report {
	c.mu.Lock()
	probes := c.probes
	c.mu.Unlock()
	rep := Report{OK: true}
	for _, p := range probes {
		res := CheckResult{Name: p.Name, Status: "ok"}
		if err := p.Check(); err != nil {
			res.Status = err.Error()
			rep.OK = false
		}
		rep.Checks = append(rep.Checks, res)
	}
	return rep
}

// Handler serves the checker as a probe endpoint: 200 with
// {"status":"ok",...} when every probe passes, 503 with
// {"status":"unavailable",...} otherwise. The body lists each probe's
// outcome in registration order so a failing probe is identifiable
// from the response alone.
func (c *Checker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		rep := c.Run()
		status := "ok"
		code := http.StatusOK
		if !rep.OK {
			status = "unavailable"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if r.Method == http.MethodHead {
			return
		}
		resp := struct {
			Status string        `json:"status"`
			Checks []CheckResult `json:"checks,omitempty"`
		}{Status: status, Checks: rep.Checks}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// A broken probe connection is not actionable; the status
			// code already went out.
			_ = err
		}
	})
}
