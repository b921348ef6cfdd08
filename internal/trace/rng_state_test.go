package trace

import "testing"

// TestRNGStateRoundTrip is the RNG's state law: a fresh generator
// restored from a mid-stream state has the same State at once, replays
// the exact remaining sequence, and still has the same State after.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	st := r.State()

	fresh := NewRNG(0)
	if err := fresh.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	if fresh.State() != st {
		t.Fatalf("restored state %+v, want %+v", fresh.State(), st)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("stream diverges at draw %d: %#x vs %#x", i, a, b)
		}
	}
	if fresh.State() != r.State() {
		t.Fatalf("states differ after 1000 more draws: %+v vs %+v", fresh.State(), r.State())
	}
}

// TestRNGStateRejectsZero: the all-zero state is a xorshift fixed point
// and must be refused.
func TestRNGStateRejectsZero(t *testing.T) {
	r := NewRNG(1)
	if err := r.SetState(RNGState{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	// The RNG must be unchanged after the rejected restore.
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("RNG state corrupted by rejected SetState")
	}
}
