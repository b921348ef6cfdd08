package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry/telhttp"
)

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// TestHandlerRunColdThenHit: the HTTP surface serves a cold run with
// Emsim-Cache: miss and the byte-identical repeat with hit; the live
// /metrics endpoint shows the hit counter.
func TestHandlerRunColdThenHit(t *testing.T) {
	live := telhttp.NewLive()
	s := New(Config{Workers: 2, Live: live})
	h := s.Handler()

	body := `{"workload":"mst","instr":100000,"cores":4}`
	cold := post(t, h, "/run", body)
	if cold.Code != 200 {
		t.Fatalf("cold run: %d\n%s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("cold run %s = %q", CacheHeader, got)
	}
	warm := post(t, h, "/run", `{"cores":4,"workload":"mst","instr":100000}`)
	if warm.Code != 200 || warm.Header().Get(CacheHeader) != "hit" {
		t.Fatalf("warm run: %d %s=%q", warm.Code, CacheHeader, warm.Header().Get(CacheHeader))
	}
	if cold.Body.String() != warm.Body.String() {
		t.Fatal("cached response bytes diverge from cold response")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var metrics map[string]struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	svc, ok := metrics["service"]
	if !ok {
		t.Fatalf("no service metrics in %v", metrics)
	}
	if svc.Counters["service_cache_hits"] != 1 || svc.Counters["service_cache_misses"] != 1 {
		t.Fatalf("metrics counters: %v", svc.Counters)
	}
}

// TestHandlerRunIgnoresReplay: a trace path in a /run body never
// reaches the run. The request decodes without it, hashes to the key of
// the same body without it, and runs the named workload: had the path
// been opened as the input, the run would fail on its bad magic.
func TestHandlerRunIgnoresReplay(t *testing.T) {
	const plain = `{"workload":"mst","instr":50000}`
	const withReplay = `{"workload":"mst","instr":50000,"replay":"/etc/passwd"}`
	var a, b RunRequest
	if err := json.Unmarshal([]byte(plain), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(withReplay), &b); err != nil {
		t.Fatal(err)
	}
	if b.Replay != "" {
		t.Fatalf("replay decoded from the wire: %q", b.Replay)
	}
	if a.Key() != b.Key() {
		t.Fatal("replay field changed the key")
	}

	h := New(Config{Workers: 1}).Handler()
	cold := post(t, h, "/run", withReplay)
	if cold.Code != 200 || cold.Header().Get(CacheHeader) != "miss" {
		t.Fatalf("run with replay field: %d %s=%q\n%s", cold.Code, CacheHeader, cold.Header().Get(CacheHeader), cold.Body.String())
	}
	warm := post(t, h, "/run", plain)
	if warm.Code != 200 || warm.Header().Get(CacheHeader) != "hit" || warm.Body.String() != cold.Body.String() {
		t.Fatalf("plain body did not hit the replay body's entry: %d %s=%q", warm.Code, CacheHeader, warm.Header().Get(CacheHeader))
	}
}

// TestHandlerErrors: bad bodies and bad specs are 400, wrong method is
// 405, and a deadline-expired request is 504.
func TestHandlerErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"syntax error", "/run", `{not json`, 400},
		{"unknown workload", "/run", `{"workload":"nope"}`, 400},
		{"bad cores", "/run", `{"workload":"mst","cores":5}`, 400},
		{"bad sweep size", "/sweep", `{"sizes":[0]}`, 400},
		{"deadline", "/run", `{"workload":"181.mcf","instr":500000000,"timeout_ms":50}`, 504},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(t, h, c.path, c.body)
			if rec.Code != c.want {
				t.Fatalf("%s: %d, want %d\n%s", c.body, rec.Code, c.want, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON: %s", rec.Body.String())
			}
		})
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/run", nil))
	if rec.Code != 405 {
		t.Fatalf("GET /run = %d, want 405", rec.Code)
	}
}

// TestHandlerQueueFull: with the only worker busy and no queue, /run
// answers 429 with a Retry-After hint.
func TestHandlerQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	release, err := s.admit(httptest.NewRequest("GET", "/", nil).Context())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rec := post(t, s.Handler(), "/run", `{"workload":"mst","instr":100000}`)
	if rec.Code != 429 {
		t.Fatalf("busy /run = %d, want 429\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHandlerHealthz: ok while serving, 503 + "draining" once drain
// begins; /run refuses likewise.
func TestHandlerHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	s.Drain(context.Background()) // no jobs in flight: returns immediately

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Fatalf("draining healthz: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/run", `{"workload":"mst"}`); rec.Code != 503 {
		t.Fatalf("draining /run = %d, want 503", rec.Code)
	}
}

// TestHandlerSweep: a sweep round-trips with points in input order and
// caches like runs do.
func TestHandlerSweep(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	body := `{"sizes":[1024,2048],"laps":2,"cores":4}`
	cold := post(t, h, "/sweep", body)
	if cold.Code != 200 {
		t.Fatalf("sweep: %d\n%s", cold.Code, cold.Body.String())
	}
	var res struct {
		Cores  int `json:"cores"`
		Points []struct {
			Lines uint64 `json:"Lines"`
		} `json:"points"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Cores != 4 || len(res.Points) != 2 || res.Points[0].Lines != 1024 || res.Points[1].Lines != 2048 {
		t.Fatalf("sweep result: %s", cold.Body.String())
	}
	warm := post(t, h, "/sweep", body)
	if warm.Header().Get(CacheHeader) != "hit" || warm.Body.String() != cold.Body.String() {
		t.Fatal("sweep repeat not a byte-identical cache hit")
	}
}

// TestHandlerBodyTooLarge: oversized request bodies bounce with 413.
func TestHandlerBodyTooLarge(t *testing.T) {
	s := New(Config{Workers: 1})
	big := `{"workload":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	rec := post(t, s.Handler(), "/run", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", rec.Code)
	}
}
