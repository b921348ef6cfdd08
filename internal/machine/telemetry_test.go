package machine

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// counterOrFail reads a named counter from a telemetry snapshot.
func counterOrFail(t *testing.T, m *Machine, name string) uint64 {
	t.Helper()
	v, ok := m.Telemetry().Snapshot().Counter(name)
	if !ok {
		t.Fatalf("counter %q not registered", name)
	}
	return v
}

// TestTelemetryMirrorsStats: the registry's counters must track the
// Stats fields they mirror exactly — the property that lets the
// timeline report per-interval deltas of the paper's Table 2 events.
func TestTelemetryMirrorsStats(t *testing.T) {
	evs := captureSynthetic(24<<10, 120_000)
	for _, tc := range []struct {
		name string
		m    *Machine
	}{
		{"normal", MustNew(NormalConfig())},
		{"migration", MustNew(MigrationConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			deliver(t, evs, m)
			mirror := []struct {
				metric string
				want   uint64
			}{
				{MetricInstructions, m.Stats.Instructions},
				{MetricRefs, m.Stats.IFetches + m.Stats.Loads + m.Stats.Stores},
				{MetricIL1Misses, m.Stats.IL1Misses},
				{MetricDL1Misses, m.Stats.DL1Misses},
				{MetricL2Hits, m.Stats.L2Hits},
				{MetricL2Misses, m.Stats.L2Misses},
				{MetricMigrations, m.Stats.Migrations},
			}
			for _, mm := range mirror {
				if got := counterOrFail(t, m, mm.metric); got != mm.want {
					t.Errorf("%s = %d, Stats say %d", mm.metric, got, mm.want)
				}
			}
			if m.Stats.Instructions == 0 || m.Stats.L2Misses == 0 {
				t.Fatal("workload too small to exercise the probes")
			}
		})
	}
}

// TestTelemetryControllerProbes: migration-mode machines must mirror
// the controller and affinity-table counters, and the migration-gap
// histogram must hold exactly one observation per migration.
func TestTelemetryControllerProbes(t *testing.T) {
	evs := captureSynthetic(24<<10, 150_000)
	m := MustNew(MigrationConfig())
	deliver(t, evs, m)
	ctrl := m.Controller()
	if ctrl.Migrations == 0 {
		t.Fatal("circular sweep must migrate")
	}
	if got := counterOrFail(t, m, MetricCtrlRequests); got != ctrl.Requests {
		t.Errorf("ctrl_requests = %d, controller says %d", got, ctrl.Requests)
	}
	if got := counterOrFail(t, m, MetricCtrlFilterUpdates); got != ctrl.L2MissUpdates {
		t.Errorf("ctrl_filter_updates = %d, controller says %d", got, ctrl.L2MissUpdates)
	}
	ac := ctrl.AffinityCache()
	if ac == nil {
		t.Fatal("Table2 config uses a bounded affinity cache")
	}
	if got := counterOrFail(t, m, MetricAffinityHits); got != ac.Hits {
		t.Errorf("affinity_hits = %d, cache says %d", got, ac.Hits)
	}
	if got := counterOrFail(t, m, MetricAffinityMisses); got != ac.Misses {
		t.Errorf("affinity_misses = %d, cache says %d", got, ac.Misses)
	}
	if got := counterOrFail(t, m, MetricAffinityEvictions); got != ac.Evictions {
		t.Errorf("affinity_evictions = %d, cache says %d", got, ac.Evictions)
	}
	var gapObs uint64
	for _, hv := range m.Telemetry().Snapshot().Hists {
		if hv.Name == MetricMigrationGap {
			for _, b := range hv.Buckets {
				gapObs += b
			}
		}
	}
	if gapObs != ctrl.Migrations {
		t.Errorf("migration_gap holds %d observations, want one per migration (%d)", gapObs, ctrl.Migrations)
	}
}

// TestTelemetrySnapshotRestore: metric values must ride the machine
// snapshot — a restored machine finishing a run reports the same
// telemetry as an uninterrupted one, and capturing a snapshot must not
// itself perturb the metrics.
func TestTelemetrySnapshotRestore(t *testing.T) {
	evs := captureSynthetic(24<<10, 120_000)
	ref := MustNew(MigrationConfig())
	deliver(t, evs, ref)

	cut := len(evs) / 3
	a := MustNew(MigrationConfig())
	deliver(t, evs[:cut], a)
	snap1, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Capture is side-effect free on metrics: a second capture sees
	// identical values.
	snap2, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap1.Telemetry, snap2.Telemetry) {
		t.Fatalf("snapshot capture perturbed telemetry:\n%+v\nvs\n%+v", snap1.Telemetry, snap2.Telemetry)
	}

	b := MustNew(MigrationConfig())
	if err := b.Restore(snap1); err != nil {
		t.Fatal(err)
	}
	deliver(t, evs[cut:], b)
	if !reflect.DeepEqual(ref.Telemetry().Snapshot(), b.Telemetry().Snapshot()) {
		t.Fatalf("restored run diverged:\nref %+v\ngot %+v",
			ref.Telemetry().Snapshot(), b.Telemetry().Snapshot())
	}
}

// TestRestoreWithoutTelemetrySection: a checkpoint whose Telemetry
// section is empty — the shape written before telemetry existed — must
// still restore every count that has an owner field from that owner's
// own section (Stats, the controller state, the affinity-cache state),
// and the registry's views must read those restored fields. Only the
// registry-owned metrics (refs, the migration-gap histogram) start
// from zero.
func TestRestoreWithoutTelemetrySection(t *testing.T) {
	evs := captureSynthetic(24<<10, 120_000)
	a := MustNew(MigrationConfig())
	deliver(t, evs, a)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Telemetry = telemetry.Snapshot{}

	b := MustNew(MigrationConfig())
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Stats != a.Stats {
		t.Fatalf("Stats not restored from their own section:\nwant %+v\ngot  %+v", a.Stats, b.Stats)
	}
	ca, cb := a.Controller(), b.Controller()
	if cb.Requests != ca.Requests || cb.L2MissUpdates != ca.L2MissUpdates {
		t.Fatalf("controller counters %d/%d, want %d/%d",
			cb.Requests, cb.L2MissUpdates, ca.Requests, ca.L2MissUpdates)
	}
	aa, ab := ca.AffinityCache(), cb.AffinityCache()
	if ab.Hits != aa.Hits || ab.Misses != aa.Misses || ab.Evictions != aa.Evictions {
		t.Fatalf("affinity cache counters %d/%d/%d, want %d/%d/%d",
			ab.Hits, ab.Misses, ab.Evictions, aa.Hits, aa.Misses, aa.Evictions)
	}
	if a.Stats.Migrations == 0 || aa.Evictions == 0 {
		t.Fatal("stream too small to exercise migrations and affinity evictions")
	}
	for metric, want := range map[string]uint64{
		MetricInstructions:      a.Stats.Instructions,
		MetricL2Misses:          a.Stats.L2Misses,
		MetricMigrations:        a.Stats.Migrations,
		MetricCtrlRequests:      ca.Requests,
		MetricCtrlFilterUpdates: ca.L2MissUpdates,
		MetricAffinityHits:      aa.Hits,
		MetricAffinityEvictions: aa.Evictions,
		MetricRefs:              0,
	} {
		if got := counterOrFail(t, b, metric); got != want {
			t.Errorf("%s = %d after restore, want %d", metric, got, want)
		}
	}
}
