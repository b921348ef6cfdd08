package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestTimelineSamplesAtIntervals(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("refs")
	tl, err := NewTimeline(r, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint64(1); ev <= 35; ev++ {
		c.Inc()
		tl.MaybeSample(ev)
	}
	if tl.Len() != 3 {
		t.Fatalf("samples = %d, want 3 (at events 10, 20, 30)", tl.Len())
	}
	rows := tl.Rows("m")
	for i, wantEv := range []uint64{10, 20, 30} {
		if rows[i].Events != wantEv || rows[i].Interval != i {
			t.Fatalf("row %d = %+v, want events %d", i, rows[i], wantEv)
		}
		if rows[i].Counters["refs"] != wantEv {
			t.Fatalf("row %d refs = %d, want %d", i, rows[i].Counters["refs"], wantEv)
		}
		if rows[i].Machine != "m" {
			t.Fatalf("row %d machine = %q", i, rows[i].Machine)
		}
	}
}

// TestTimelineRingGrowth: exceeding the preallocated capacity must keep
// earlier samples intact.
func TestTimelineRingGrowth(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("n")
	tl, err := NewTimeline(r, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint64(1); ev <= 100; ev++ {
		c.Inc()
		tl.MaybeSample(ev)
	}
	if tl.Len() != 100 {
		t.Fatalf("samples = %d, want 100", tl.Len())
	}
	rows := tl.Rows("m")
	for i, row := range rows {
		if row.Counters["n"] != uint64(i+1) {
			t.Fatalf("row %d n = %d, want %d", i, row.Counters["n"], i+1)
		}
	}
}

// TestTimelineHardCapDropsOldest: at the row limit the ring stops
// growing and slides — the newest rows survive, the evicted prefix is
// counted, and the surviving rows keep their original interval numbers.
func TestTimelineHardCapDropsOldest(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("n")
	tl, err := NewTimelineLimited(r, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint64(1); ev <= 20; ev++ {
		c.Inc()
		tl.MaybeSample(ev)
	}
	if tl.Len() != 8 {
		t.Fatalf("len = %d, want the 8-row cap", tl.Len())
	}
	if tl.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12 (20 samples through an 8-row cap)", tl.Dropped())
	}
	rows := tl.Rows("m")
	for i, row := range rows {
		wantEv := uint64(13 + i) // the 8 most recent of 20 samples
		if row.Events != wantEv || row.Counters["n"] != wantEv {
			t.Fatalf("row %d = events %d n %d, want %d", i, row.Events, row.Counters["n"], wantEv)
		}
		if row.Interval != 12+i {
			t.Fatalf("row %d interval = %d, want %d (original numbering preserved)", i, row.Interval, 12+i)
		}
	}
}

// TestTimelineCapClampsCapacity: a capacity above the limit must not
// preallocate rows the cap would never let the ring reach.
func TestTimelineCapClampsCapacity(t *testing.T) {
	tl, err := NewTimelineLimited(NewRegistry(), 1, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.samples) != 4 {
		t.Fatalf("preallocated %d slots, want the 4-row cap", len(tl.samples))
	}
	if tl2, err := NewTimelineLimited(NewRegistry(), 1, 1, 0); err != nil || tl2.limit != DefaultTimelineLimit {
		t.Fatalf("limit 0 did not select the default cap: %v, %v", tl2, err)
	}
}

// TestTimelineCapEvictionIsAllocationFree: the sliding-window steady
// state recycles the evicted slot's preallocated storage.
func TestTimelineCapEvictionIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("refs")
	h := r.MustHistogram("gap")
	tl, err := NewTimelineLimited(r, 1, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	allocs := sampleAllocs(c, h, tl)
	if allocs != 0 {
		t.Fatalf("%v allocations over %d evicting samples; eviction must recycle the slot", allocs, sampledEvents)
	}
}

func TestTimelineRejectsZeroInterval(t *testing.T) {
	if _, err := NewTimeline(NewRegistry(), 0, 1); err == nil {
		t.Fatal("interval 0 accepted")
	}
}

// TestTimelineSamplingIsAllocationFree: within the preallocated ring,
// MaybeSample must not allocate — it runs on the simulation's event
// path.
func TestTimelineSamplingIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("refs")
	h := r.MustHistogram("gap")
	tl, err := NewTimeline(r, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	allocs := sampleAllocs(c, h, tl)
	if allocs != 0 {
		t.Fatalf("%v allocations over %d sampled events; the timeline ring must be preallocated", allocs, sampledEvents)
	}
}

// sampledEvents is the window sampleAllocs counts allocations over.
const sampledEvents = 5000

// sampleAllocs counts every allocation over sampledEvents events, each
// bumping c, observing into h and offering a sample to tl.
func sampleAllocs(c Counter, h Histogram, tl *Timeline) float64 {
	var ev uint64
	return testing.AllocsPerRun(1, func() {
		for n := 0; n < sampledEvents; n++ {
			ev++
			c.Inc()
			h.Observe(ev)
			tl.MaybeSample(ev)
		}
	})
}

func TestMergeRowsInterleavesDeterministically(t *testing.T) {
	mk := func(machine string, n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Machine: machine, Interval: i, Events: uint64((i + 1) * 10)}
		}
		return rows
	}
	merged := MergeRows(mk("normal", 3), mk("migration", 2))
	var got []string
	for _, r := range merged {
		got = append(got, r.Machine)
	}
	want := "normal migration normal migration normal"
	if strings.Join(got, " ") != want {
		t.Fatalf("merge order = %v, want %q", got, want)
	}
}

func TestWriteJSONLFormat(t *testing.T) {
	rows := []Row{
		{Machine: "normal", Interval: 0, Events: 10, Counters: map[string]uint64{"b": 2, "a": 1}},
		{Machine: "migration", Interval: 0, Events: 10, Counters: map[string]uint64{"a": 3},
			Hists: map[string][]uint64{"h": {0, 1}}},
	}
	var buf bytes.Buffer
	if err := WriteJSONLWithFooter(&buf, rows, 0); err != nil {
		t.Fatal(err)
	}
	want := `{"machine":"normal","interval":0,"events":10,"counters":{"a":1,"b":2}}
{"machine":"migration","interval":0,"events":10,"counters":{"a":3},"hists":{"h":[0,1]}}
`
	if buf.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWriteJSONLFooter: a capped run's output ends with the
// drop-accounting footer; an uncapped run's output is byte-identical to
// the footerless format.
func TestWriteJSONLFooter(t *testing.T) {
	rows := []Row{
		{Machine: "normal", Interval: 3, Events: 40, Counters: map[string]uint64{"a": 1}},
	}
	var capped bytes.Buffer
	if err := WriteJSONLWithFooter(&capped, rows, 3); err != nil {
		t.Fatal(err)
	}
	want := `{"machine":"normal","interval":3,"events":40,"counters":{"a":1}}
{"dropped_rows":3,"kept_rows":1}
`
	if capped.String() != want {
		t.Fatalf("footer JSONL:\n%s\nwant:\n%s", capped.String(), want)
	}
	var plain bytes.Buffer
	if err := WriteJSONLWithFooter(&plain, rows, 0); err != nil {
		t.Fatal(err)
	}
	if footerless := strings.SplitAfter(want, "\n")[0]; plain.String() != footerless {
		t.Fatalf("zero-drop output not byte-identical to the footerless format:\n%s", plain.String())
	}
}
