package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// asV1 rewrites a version-2 trace of events records as the same record
// stream in version 1: no flags byte, no footer.
func asV1(v2 []byte, events uint64) []byte {
	body := v2[len(traceMagicV2)+1 : len(v2)-4-len(binary.AppendUvarint(nil, events))]
	return append([]byte(traceMagicV1), body...)
}

// replayed is everything one replay shows: its records, its stats and
// its terminal error.
type replayed struct {
	rec   recSink
	stats ReplayStats
	err   string
}

// replayAt decodes data from the top (p nil) or resumed at p, recording
// idx's positions as it reads when idx is non-nil.
func replayAt(t *testing.T, data []byte, p *Position, batch int, idx *Index) replayed {
	t.Helper()
	br, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		if err := br.Resume(*p); err != nil {
			t.Fatal(err)
		}
	}
	var r replayed
	if _, err := br.ReplayIndexed(&r.rec, mem.NewBatch(batch), idx); err != nil {
		r.err = err.Error()
	}
	r.stats = br.Stats()
	return r
}

// suffix is the replay a reader resumed at p must produce: the records
// after p.Events, with the full replay's stats and error.
func (r replayed) suffix(p Position) replayed {
	s := r
	s.rec = recSink{}
	if p.Events < uint64(len(r.rec.kinds)) {
		s.rec = recSink{addrs: r.rec.addrs[p.Events:], kinds: r.rec.kinds[p.Events:]}
	}
	return s
}

// checkResumes resumes data at every position of idx and compares each
// replay with the suffix of the full one.
func checkResumes(t *testing.T, name string, data []byte, full replayed, idx *Index) {
	t.Helper()
	for i := range idx.Positions {
		p := idx.Positions[i]
		got := replayAt(t, data, &p, 0, nil)
		if want := full.suffix(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumed at position %d (event %d, byte %d): %d records, stats %+v, err %q; want %d records, stats %+v, err %q",
				name, i, p.Events, p.Offset, len(got.rec.kinds), got.stats, got.err, len(want.rec.kinds), want.stats, want.err)
		}
	}
}

// TestResumeEqualsSuffix: for both trace versions, a reader resumed at
// any recorded position decodes exactly the suffix of the records a
// full replay decodes, and reaches the same footer verdict: the running
// CRC and the event count carry across the resume, so version 2 still
// verifies the whole trace. Positions recorded at default batches lie
// exactly one stride apart from event 0.
func TestResumeEqualsSuffix(t *testing.T) {
	v2 := recordMixed(t, 30_000)
	var whole recSink
	br, err := NewBatchReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	events, err := br.ReplayBatches(&whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"EMTRACE1", asV1(v2, events)},
		{"EMTRACE2", v2},
	} {
		def := new(Index)
		full := replayAt(t, tc.data, nil, 0, def)
		if full.err != "" || full.stats.Events != events {
			t.Fatalf("%s: full replay: %d events, err %q", tc.name, full.stats.Events, full.err)
		}
		if tc.name == "EMTRACE2" && (!full.stats.CRCVerified || full.stats.DeclaredEvents != events) {
			t.Fatalf("%s: footer not verified: %+v", tc.name, full.stats)
		}
		want := (events + def.Stride() - 1) / def.Stride()
		if uint64(len(def.Positions)) != want {
			t.Fatalf("%s: %d positions over %d events, want %d", tc.name, len(def.Positions), events, want)
		}
		for i, p := range def.Positions {
			if p.Events != uint64(i)*def.Stride() {
				t.Fatalf("%s: position %d at event %d, want %d", tc.name, i, p.Events, uint64(i)*def.Stride())
			}
		}
		checkResumes(t, tc.name+" default index", tc.data, full, def)

		fine := &Index{stride: 1}
		replayAt(t, tc.data, nil, 97, fine) // a position at every 97-record batch start
		if len(fine.Positions) < 100 {
			t.Fatalf("%s: only %d fine positions", tc.name, len(fine.Positions))
		}
		checkResumes(t, tc.name+" fine index", tc.data, full, fine)
	}
}

// TestResumeDetectsLaterDamage: a byte flipped after a position fails
// the resumed replay with the same ErrCorrupt, at the same offset, as a
// full replay of the damaged trace, after the same records.
func TestResumeDetectsLaterDamage(t *testing.T) {
	clean := recordMixed(t, 5_000)
	idx := &Index{stride: 1}
	replayAt(t, clean, nil, 211, idx)
	for k := 0; k < len(idx.Positions); k += len(idx.Positions)/8 + 1 {
		at := idx.Positions[k].Offset + 5
		damaged := append([]byte(nil), clean...)
		damaged[at] ^= 0x40 // a tag turns unknown, or a value breaks the CRC
		br, err := NewBatchReader(bytes.NewReader(damaged))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReplayBatches(&recSink{}, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: full replay returned %v, want ErrCorrupt", at, err)
		}
		full := replayAt(t, damaged, nil, 0, nil)
		for _, p := range idx.Positions[:k+1] {
			if got, want := replayAt(t, damaged, &p, 0, nil), full.suffix(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d flipped, resumed at byte %d: err %q after %d records, want %q after %d",
					at, p.Offset, got.err, len(got.rec.kinds), want.err, len(want.rec.kinds))
			}
		}
	}
}

// TestIndexBounded: past indexCap positions the index keeps every
// other one and doubles its stride, so it never holds more than
// indexCap positions, they stay exactly one stride apart, and each is
// still resumable.
func TestIndexBounded(t *testing.T) {
	data := recordMixed(t, 40_000)
	idx := &Index{stride: 1}
	full := replayAt(t, data, nil, 1, idx) // a batch, and a position, per record
	if full.stats.Events < 2*indexCap {
		t.Fatalf("%d events do not overflow the index twice", full.stats.Events)
	}
	if len(idx.Positions) > indexCap || idx.Stride() < 4 {
		t.Fatalf("%d positions at stride %d", len(idx.Positions), idx.Stride())
	}
	for i, p := range idx.Positions {
		if p.Events != uint64(i)*idx.Stride() {
			t.Fatalf("position %d at event %d, want %d", i, p.Events, uint64(i)*idx.Stride())
		}
	}
	last := &Index{Positions: []Position{idx.Positions[len(idx.Positions)/2], idx.Positions[len(idx.Positions)-1]}}
	checkResumes(t, "thinned index", data, full, last)
}

// TestResumeRefuses: resuming needs a seekable reader and a position
// past the header.
func TestResumeRefuses(t *testing.T) {
	data := recordMixed(t, 100)
	br, err := NewBatchReader(io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Resume(Position{Offset: 9}); err == nil {
		t.Error("resumed an unseekable reader")
	}
	if br, err = NewBatchReader(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := br.Resume(Position{Offset: 8}); err == nil {
		t.Error("resumed inside the EMTRACE2 header")
	}
}

// resumeBody is the resume fuzz body: whatever the bytes, a reader
// resumed at any position a full replay recorded decodes exactly the
// suffix of the full replay's records and ends with its stats and its
// error, typed errors and offsets included.
func resumeBody(t *testing.T, data []byte) {
	if _, err := NewBatchReader(bytes.NewReader(data)); err != nil {
		return
	}
	idx := &Index{stride: 1}
	full := replayAt(t, data, nil, 5, idx)
	step := len(idx.Positions)/32 + 1
	for i := 0; i < len(idx.Positions); i += step {
		p := idx.Positions[i]
		if got, want := replayAt(t, data, &p, 0, nil), full.suffix(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed at event %d (byte %d): %d records, stats %+v, err %q; want %d records, stats %+v, err %q",
				p.Events, p.Offset, len(got.rec.kinds), got.stats, got.err, len(want.rec.kinds), want.stats, want.err)
		}
	}
}

// FuzzResume drives arbitrary bytes through a full replay and through
// replays resumed at its recorded positions.
func FuzzResume(f *testing.F) {
	for _, s := range fuzzSeedTraces() {
		f.Add(s)
	}
	f.Fuzz(resumeBody)
}

// TestResumeCorpusSmoke runs the resume fuzz body over the seed corpus
// in a plain test.
func TestResumeCorpusSmoke(t *testing.T) {
	for _, s := range fuzzSeedTraces() {
		resumeBody(t, s)
	}
}
