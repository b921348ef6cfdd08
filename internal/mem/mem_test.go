package mem

import (
	"testing"
	"testing/quick"
)

// TestLineAddrRoundTrip: LineOf/AddrOf are inverse on line-aligned
// addresses and LineOf is constant within a line.
func TestLineAddrRoundTrip(t *testing.T) {
	f := func(raw uint64, shiftRaw uint8) bool {
		shift := uint(shiftRaw%7) + 4 // 16B..1KB lines
		line := Line(raw >> shift)
		addr := AddrOf(line, shift)
		if LineOf(addr, shift) != line {
			return false
		}
		// any byte within the line maps back to it
		off := raw % (1 << shift)
		return LineOf(addr+Addr(off), shift) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// TestKindPredicates covers the kind names.
func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k   Kind
		str string
	}{
		{IFetch, "ifetch"},
		{Load, "load"},
		{Store, "store"},
		{PtrLoad, "ptrload"},
	}
	for _, c := range cases {
		if c.k.String() != c.str {
			t.Errorf("%v: String=%q", c.k, c.k.String())
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still stringify")
	}
}

// TestCountingSink tallies by kind and forwards.
func TestCountingSink(t *testing.T) {
	var got []Access
	inner := FuncSink(func(a Addr, k Kind) { got = append(got, Access{a, k}) })
	cs := CountingSink{Inner: inner}
	cs.Access(1, IFetch)
	cs.Access(2, Load)
	cs.Access(3, PtrLoad)
	cs.Access(4, Store)
	cs.Instr(10)
	cs.Instr(5)
	if cs.Fetches != 1 || cs.Loads != 2 || cs.Stores != 1 || cs.Instructions != 15 {
		t.Fatalf("counts: %+v", cs)
	}
	if cs.References() != 4 || len(got) != 4 {
		t.Fatalf("references %d forwarded %d", cs.References(), len(got))
	}
	// nil inner is allowed
	pure := CountingSink{}
	pure.Access(9, Load)
	pure.Instr(1)
	if pure.Loads != 1 || pure.Instructions != 1 {
		t.Fatal("pure counter broken")
	}
}

// TestNullSink is a no-op Sink (compile-time + smoke).
func TestNullSink(t *testing.T) {
	var n NullSink
	n.Access(1, Load)
	n.Instr(1)
	var _ Sink = n
}
