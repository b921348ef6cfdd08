package mem

import (
	"reflect"
	"testing"
)

// recorder is a batch kernel that keeps a copy of every record.
type recorder struct{ addrs, kinds []uint64 }

func (r *recorder) AccessBatch(b *Batch) {
	for i, k := range b.Kind {
		r.addrs = append(r.addrs, uint64(b.Addr[i]))
		r.kinds = append(r.kinds, uint64(k))
	}
}

// TestRecord: the one-record adapter yields exactly the record it was
// handed, reuses its storage, and does not allocate.
func TestRecord(t *testing.T) {
	var r Record
	b := r.Access(0x40, Store)
	if b.Len() != 1 || b.Addr[0] != 0x40 || b.Kind[0] != uint8(Store) {
		t.Fatalf("access record = %+v", *b)
	}
	if b2 := r.Instr(7); b2 != b || b.Len() != 1 || b.Addr[0] != 7 || b.Kind[0] != KindInstr {
		t.Fatalf("instr record = %+v", *b2)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Access(1, Load)
		r.Instr(1)
	}); allocs != 0 {
		t.Fatalf("Record allocates %.1f per record pair", allocs)
	}
}

// TestBatcherOrder: scalar pushes and pass-through batches reach the
// kernel in stream order, in batches of the configured length.
func TestBatcherOrder(t *testing.T) {
	var got recorder
	ba := NewBatcher(&got, 2)
	ba.Access(1, Load)
	ba.Instr(2)
	ba.Access(3, Store) // pending when the batch below arrives
	whole := NewBatch(2)
	whole.Append(4, IFetch)
	whole.AppendInstr(5)
	ba.AccessBatch(whole)
	ba.Instr(6)
	ba.Flush()
	want := recorder{
		addrs: []uint64{1, 2, 3, 4, 5, 6},
		kinds: []uint64{uint64(Load), uint64(KindInstr), uint64(Store), uint64(IFetch), uint64(KindInstr), uint64(KindInstr)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
}
