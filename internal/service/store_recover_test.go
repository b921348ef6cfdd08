package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/store"
)

// mediumSpec runs a couple of seconds — long enough to drain-cancel
// mid-flight, short enough to resume to completion inside a test.
var mediumSpec = RunSpec{Workload: "181.mcf", Instr: 20_000_000, Cores: 4}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWriteThrough: a result computed before a "restart" (a fresh
// Service over the same store directory) is served as a cache hit with
// byte-identical content, even though the new in-memory cache is cold.
func TestStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	a := New(Config{Workers: 2, Store: openStore(t, dir)})
	cold, cached, err := a.Run(ctx, smallSpec)
	if err != nil || cached {
		t.Fatalf("cold run: cached=%v err=%v", cached, err)
	}

	b := New(Config{Workers: 2, Store: openStore(t, dir)})
	warm, cached, err := b.Run(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("restarted service recomputed a stored result")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("store round-trip changed bytes:\n%s\nvs\n%s", cold, warm)
	}
	m := b.Metrics()
	if m.StoreHits.Value() != 1 || m.CacheHits.Value() != 1 {
		t.Fatalf("store_hits=%d cache_hits=%d, want 1/1", m.StoreHits.Value(), m.CacheHits.Value())
	}
	// The store hit re-populated the memory cache: the next request does
	// not touch the store again.
	if _, cached, err := b.Run(ctx, smallSpec); err != nil || !cached {
		t.Fatalf("second warm run: cached=%v err=%v", cached, err)
	}
	if m.StoreHits.Value() != 1 {
		t.Fatalf("store consulted again after cache re-population: %d hits", m.StoreHits.Value())
	}
}

// TestStoreCorruptEntryRecomputed: a bit-rotted store entry is
// quarantined and transparently recomputed — the client observes the
// correct bytes, never the corrupt ones.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	a := New(Config{Workers: 2, Store: openStore(t, dir)})
	cold, _, err := a.Run(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Rot one payload byte of the single stored entry on disk.
	key := smallSpec.Normalize().Key()
	path := filepath.Join(dir, key+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := New(Config{Workers: 2, Store: openStore(t, dir)})
	got, cached, err := b.Run(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("corrupt entry served as a hit")
	}
	if !bytes.Equal(cold, got) {
		t.Fatalf("recomputed bytes diverge:\n%s\nvs\n%s", cold, got)
	}
	// Opening quarantined it during the startup scan (Get would have,
	// had the scan not), and the recomputed result was re-persisted.
	if b.Metrics().Quarantined.Value() == 0 {
		t.Fatal("quarantine not counted")
	}
	c := New(Config{Workers: 2, Store: openStore(t, dir)})
	if again, cached, err := c.Run(ctx, smallSpec); err != nil || !cached || !bytes.Equal(cold, again) {
		t.Fatalf("re-persisted entry: cached=%v err=%v", cached, err)
	}
}

// TestRecoverResumesSpooledJob is the crash-recovery round trip at the
// service level: drain cancels a job mid-run and spools it; a fresh
// service over the same spool adopts the checkpoint, resumes it to
// completion, and publishes a result byte-identical to an
// uninterrupted run of the same spec.
func TestRecoverResumesSpooledJob(t *testing.T) {
	spool := t.TempDir()
	storeDir := t.TempDir()

	// The oracle: the same spec computed without any interruption.
	oracle, _, err := New(Config{Workers: 1}).Run(context.Background(), mediumSpec)
	if err != nil {
		t.Fatal(err)
	}

	a := New(Config{Workers: 1, SpoolDir: spool})
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.Run(context.Background(), mediumSpec)
		errc <- err
	}()
	waitUntil(t, "job to start", func() bool { return a.Metrics().InFlight.Value() == 1 })
	expired, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if cancelled := a.Drain(expired); !cancelled {
		t.Fatal("drain did not cancel the in-flight job")
	}
	<-errc

	b := New(Config{Workers: 1, SpoolDir: spool, Store: openStore(t, storeDir)})
	rep := b.Recover(context.Background())
	if rep.Resumed != 1 || len(rep.Errors) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	m := b.Metrics()
	if m.RecoveredJobs.Value() != 1 {
		t.Fatalf("store_recovered_jobs = %d, want 1", m.RecoveredJobs.Value())
	}
	// The checkpoint was consumed and the result is now served from
	// cache — byte-identical to the uninterrupted run.
	if left, _ := filepath.Glob(filepath.Join(spool, "*.ckpt")); len(left) != 0 {
		t.Fatalf("consumed checkpoint still in spool: %v", left)
	}
	got, cached, err := b.Run(context.Background(), mediumSpec)
	if err != nil || !cached {
		t.Fatalf("recovered result not cached: cached=%v err=%v", cached, err)
	}
	if !bytes.Equal(oracle, got) {
		t.Fatalf("recovered result diverges from uninterrupted run:\n%s\nvs\n%s", oracle, got)
	}
	// And it is durable: a third service over the same store serves it.
	c := New(Config{Workers: 1, Store: openStore(t, storeDir)})
	if again, cached, err := c.Run(context.Background(), mediumSpec); err != nil || !cached || !bytes.Equal(oracle, again) {
		t.Fatalf("recovered result not durable: cached=%v err=%v", cached, err)
	}
}

// mkSnapshot builds a fresh pair of machine snapshots — the minimum a
// structurally valid checkpoint file needs.
func mkSnapshot(t *testing.T) []machine.NamedSnapshot {
	t.Helper()
	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		t.Fatal(err)
	}
	migCfg, err := machine.MigrationConfigFor(4)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := machine.New(migCfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := normal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return []machine.NamedSnapshot{{Name: "normal", Snap: ns}, {Name: "migration", Snap: ms}}
}

// TestRecoverHonorsCancelledContext is the regression test for the
// shutdown-vs-recovery race: Recover with an already-cancelled context
// must stop between files — counting the remaining checkpoints as
// respooled and leaving them on disk for the next start — instead of
// loading and re-admitting jobs against its own drain. (Previously
// only the in-flight resume observed ctx; the scan loop never did.)
func TestRecoverHonorsCancelledContext(t *testing.T) {
	spool := t.TempDir()
	spec := mediumSpec.Normalize()
	for _, name := range []string{"1111111111111111.ckpt", "2222222222222222.ckpt"} {
		ck := &machine.Checkpoint{Workload: spec.Workload, Instr: spec.Instr, Cores: spec.Cores, Machines: mkSnapshot(t)}
		if err := machine.SaveCheckpoint(filepath.Join(spool, name), ck); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{Workers: 1, SpoolDir: spool})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := s.Recover(ctx)
	if rep.Respooled != 2 || rep.Resumed != 0 || rep.Quarantined != 0 || len(rep.Errors) != 0 {
		t.Fatalf("cancelled recovery report: %+v", rep)
	}
	left, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("checkpoints not left for the next start: %v", left)
	}
}

// TestRecoverTriage: corrupt checkpoints are quarantined, trace-driven
// ones are left for emsim -resume, and checkpoints whose result already
// exists are discarded without work.
func TestRecoverTriage(t *testing.T) {
	spool := t.TempDir()
	storeDir := t.TempDir()
	st := openStore(t, storeDir)

	// A corrupt spool file.
	if err := os.WriteFile(filepath.Join(spool, "deadbeefdeadbeef.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign (trace-driven) checkpoint the service cannot replay.
	foreign := &machine.Checkpoint{Replay: "/tmp/some.emt", Cores: 4, Machines: mkSnapshot(t)}
	if err := machine.SaveCheckpoint(filepath.Join(spool, "aaaaaaaaaaaaaaaa.ckpt"), foreign); err != nil {
		t.Fatal(err)
	}
	// A checkpoint for work that is already done.
	doneSpec := smallSpec.Normalize()
	if err := st.Put(doneSpec.Key(), []byte(`{"already":"done"}`)); err != nil {
		t.Fatal(err)
	}
	done := &machine.Checkpoint{Workload: doneSpec.Workload, Instr: doneSpec.Instr, Cores: doneSpec.Cores, Machines: mkSnapshot(t)}
	donePath := filepath.Join(spool, doneSpec.Key()[:16]+".ckpt")
	if err := machine.SaveCheckpoint(donePath, done); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, SpoolDir: spool, Store: st})
	rep := s.Recover(context.Background())
	if rep.Quarantined != 1 || rep.Foreign != 1 || rep.AlreadyDone != 1 || rep.Resumed != 0 {
		t.Fatalf("triage report: %+v", rep)
	}
	if s.Metrics().Quarantined.Value() != 1 {
		t.Fatalf("store_quarantined = %d, want 1", s.Metrics().Quarantined.Value())
	}
	if _, err := os.Stat(filepath.Join(spool, spoolQuarantineDir, "deadbeefdeadbeef.ckpt")); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(spool, "aaaaaaaaaaaaaaaa.ckpt")); err != nil {
		t.Fatalf("foreign checkpoint not left in place: %v", err)
	}
	if _, err := os.Stat(donePath); !os.IsNotExist(err) {
		t.Fatalf("already-done checkpoint not discarded: %v", err)
	}
}

// TestProbeEndpoints: /livez stays up throughout; /readyz tracks the
// spool-recovery and drain lifecycle.
func TestProbeEndpoints(t *testing.T) {
	spool := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: spool})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, _ := get("/livez"); code != 200 {
		t.Fatalf("/livez before recovery: %d", code)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "recovery in progress") {
		t.Fatalf("/readyz before recovery: %d %s", code, body)
	}
	s.Recover(context.Background())
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after recovery: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Drain(ctx)
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining: %d %s", code, body)
	}
	if code, _ := get("/livez"); code != 200 {
		t.Fatalf("/livez while draining: %d", code)
	}
}

// TestConcurrentIdenticalRequests: many goroutines racing the same spec
// through a small service all succeed with byte-identical bodies, the
// first result wins both layers, and the store ends with exactly one
// entry. Run with -race, this is the write-path data-race check.
func TestConcurrentIdenticalRequests(t *testing.T) {
	for _, tc := range []struct {
		name      string
		withStore bool
	}{
		{"memory-only", false},
		{"write-through", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 4}
			var st *store.Store
			if tc.withStore {
				st = openStore(t, t.TempDir())
				cfg.Store = st
			}
			s := New(cfg)
			const clients = 16
			bodies := make([][]byte, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					b, _, err := s.Run(context.Background(), smallSpec)
					if err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
					bodies[i] = b
				}(i)
			}
			wg.Wait()
			for i := 1; i < clients; i++ {
				if !bytes.Equal(bodies[0], bodies[i]) {
					t.Fatalf("client %d saw different bytes", i)
				}
			}
			if tc.withStore {
				keys, err := st.Keys()
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != 1 {
					t.Fatalf("store holds %d entries, want 1", len(keys))
				}
				if got, err := st.Get(keys[0]); err != nil || !bytes.Equal(got, bodies[0]) {
					t.Fatalf("stored entry diverges: %v", err)
				}
			}
		})
	}
}

// TestServiceCacheEviction: the bounded cache evicts FIFO at the
// service level — a spec pushed out by fresh keys recomputes (miss),
// unless the durable store still holds it.
func TestServiceCacheEviction(t *testing.T) {
	ctx := context.Background()
	specA := smallSpec
	specB := RunSpec{Workload: "mst", Instr: 120_000, Cores: 4}

	s := New(Config{Workers: 2, CacheEntries: 1})
	if _, _, err := s.Run(ctx, specA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(ctx, specB); err != nil { // evicts A
		t.Fatal(err)
	}
	if _, cached, err := s.Run(ctx, specA); err != nil || cached {
		t.Fatalf("evicted spec served from cache: cached=%v err=%v", cached, err)
	}

	// Same eviction with a store behind it: the eviction costs a store
	// read, not a recomputation.
	st := openStore(t, t.TempDir())
	d := New(Config{Workers: 2, CacheEntries: 1, Store: st})
	a1, _, err := d.Run(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Run(ctx, specB); err != nil {
		t.Fatal(err)
	}
	a2, cached, err := d.Run(ctx, specA)
	if err != nil || !cached || !bytes.Equal(a1, a2) {
		t.Fatalf("evicted spec not served from store: cached=%v err=%v", cached, err)
	}
	if d.Metrics().StoreHits.Value() != 1 {
		t.Fatalf("store_hits = %d, want 1", d.Metrics().StoreHits.Value())
	}
}

// TestRecoverPrerefactorCheckpoint: recovery adopts a spooled
// checkpoint that an older binary wrote — the frozen pre-refactor
// EMCKPT1 file of the mst / 200k instr / 4 cores run, a periodic
// checkpoint taken mid-stream — and publishes a /run result
// byte-identical to that binary's frozen `emsim -json` output.
func TestRecoverPrerefactorCheckpoint(t *testing.T) {
	frozen := filepath.Join("..", "..", "e2e", "testdata", "prerefactor")
	ck, err := os.ReadFile(filepath.Join(frozen, "emsim_mst.ckpt.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(frozen, "emsim_json_mst.golden"))
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	spooled := filepath.Join(spool, "0123456789abcdef.ckpt")
	if err := os.WriteFile(spooled, ck, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, SpoolDir: spool})
	rep := s.Recover(context.Background())
	if rep.Resumed != 1 || len(rep.Errors) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if _, err := os.Stat(spooled); !os.IsNotExist(err) {
		t.Fatalf("adopted checkpoint still in spool: %v", err)
	}
	rec := post(t, s.Handler(), "/run", `{"workload":"mst","instr":200000,"cores":4}`)
	if rec.Code != 200 || rec.Header().Get(CacheHeader) != "hit" {
		t.Fatalf("/run after recovery: %d %s=%q\n%s", rec.Code, CacheHeader, rec.Header().Get(CacheHeader), rec.Body.String())
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("recovered /run bytes diverge from the frozen emsim -json output:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
