package health

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCheckerAllHealthy: every probe passing yields OK and a 200 with
// per-probe status in registration order.
func TestCheckerAllHealthy(t *testing.T) {
	c := NewChecker()
	c.Register("store", func() error { return nil })
	c.Register("recovery", func() error { return nil })
	rep := c.Run()
	if !rep.OK || len(rep.Checks) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Checks[0].Name != "store" || rep.Checks[1].Name != "recovery" {
		t.Fatalf("probe order not registration order: %+v", rep.Checks)
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy checker served %d", rec.Code)
	}
	var resp struct {
		Status string        `json:"status"`
		Checks []CheckResult `json:"checks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Status != "ok" || resp.Checks[1].Status != "ok" {
		t.Fatalf("response: %+v", resp)
	}
}

// TestCheckerFailingProbe: one failing probe flips the endpoint to 503
// and names itself with its error text.
func TestCheckerFailingProbe(t *testing.T) {
	c := NewChecker()
	c.Register("store", func() error { return nil })
	c.Register("recovery", func() error { return errors.New("3 checkpoints still replaying") })
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("failing checker served %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"unavailable"`) || !strings.Contains(body, "3 checkpoints still replaying") {
		t.Fatalf("body does not name the failing probe: %s", body)
	}
	// The healthy probe still reports ok alongside the failure.
	if !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy probe missing from body: %s", body)
	}
}

// TestCheckerMethods: HEAD is allowed (status only), other methods are
// 405.
func TestCheckerMethods(t *testing.T) {
	c := NewChecker()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("HEAD", "/livez", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("HEAD: %d, %d body bytes", rec.Code, rec.Body.Len())
	}
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/livez", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: %d", rec.Code)
	}
}

// TestCheckerDynamicProbe: a probe reflects current state, not the
// state at registration.
func TestCheckerDynamicProbe(t *testing.T) {
	ready := false
	c := NewChecker()
	c.Register("gate", func() error {
		if !ready {
			return errors.New("not ready")
		}
		return nil
	})
	if rep := c.Run(); rep.OK {
		t.Fatal("gate passed while closed")
	}
	ready = true
	if rep := c.Run(); !rep.OK {
		t.Fatal("gate failed after opening")
	}
}

// TestBackoffWindows: delays stay inside the full-jitter window
// [0, min(cap, base·2ⁿ)] and the windows grow until the cap.
func TestBackoffWindows(t *testing.T) {
	base, cap := 100*time.Millisecond, 800*time.Millisecond
	b := NewSeededBackoff(base, cap, 1)
	for attempt := 0; attempt < 10; attempt++ {
		window := base << attempt
		if window > cap || window <= 0 {
			window = cap
		}
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt)
			if d < 0 || d > window {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, window)
			}
		}
	}
}

// TestBackoffJitterSpreads: two clients with different seeds draw
// different delay sequences — the de-synchronisation the jitter is for.
func TestBackoffJitterSpreads(t *testing.T) {
	a := NewSeededBackoff(time.Second, time.Minute, 1)
	b := NewSeededBackoff(time.Second, time.Minute, 2)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Delay(i%8) == b.Delay(i%8) {
			same++
		}
	}
	if same > 4 {
		t.Fatalf("%d/32 identical delays across different seeds", same)
	}
}

// TestBackoffDefaults: zero-valued Base/Cap fall back to usable
// defaults instead of a zero window.
func TestBackoffDefaults(t *testing.T) {
	b := NewSeededBackoff(0, 0, 7)
	saw := false
	for i := 0; i < 100; i++ {
		if b.Delay(6) > 0 {
			saw = true
		}
		if d := b.Delay(6); d > 5*time.Second {
			t.Fatalf("default cap exceeded: %v", d)
		}
	}
	if !saw {
		t.Fatal("defaulted backoff never produced a positive delay")
	}
}

// TestNewBackoffSeedsFromClock: the production constructor produces a
// working (non-panicking, in-window) source.
func TestNewBackoffSeedsFromClock(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 100*time.Millisecond)
	for i := 0; i < 50; i++ {
		if d := b.Delay(i); d < 0 || d > 100*time.Millisecond {
			t.Fatalf("delay %v out of window", d)
		}
	}
}
