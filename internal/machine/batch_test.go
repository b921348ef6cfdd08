package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// driveMix pushes n deterministic records of a mixed-kind stream
// (including an unknown kind tag, which must count a reference and
// nothing else on either kernel) into sink, with instruction records
// interleaved.
func driveMix(sink mem.Sink, ws int, n int) {
	g := trace.NewCircular(uint64(ws))
	h := trace.NewCircular(uint64(ws) / 3)
	for i := 0; i < n; i++ {
		var line mem.Line
		if i%3 == 0 {
			line = mem.Line(h.Next())
		} else {
			line = mem.Line(g.Next())
		}
		addr := mem.AddrOf(line, 6)
		switch i % 16 {
		case 0, 8:
			sink.Access(addr, mem.IFetch)
		case 1:
			sink.Access(addr, mem.Store)
		case 5:
			sink.Access(addr, mem.PtrLoad)
		case 11:
			sink.Access(addr, mem.Kind(9)) // unknown kind: refs only
		default:
			sink.Access(addr, mem.Load)
		}
		if i%4 == 0 {
			sink.Instr(3)
		}
	}
}

// TestAccessBatchMatchesScalar is the machine-level differential gate:
// the same record stream delivered through the record-at-a-time
// reference kernel (refSink) and through AccessBatch, at batch lengths
// from one record (the Access/Instr forwards) to the default 4096, must
// leave the machines with identical statistics, telemetry snapshots,
// cache/controller state and policy state.
func TestAccessBatchMatchesScalar(t *testing.T) {
	for name, cfg := range referenceConfigs() {
		t.Run(name, func(t *testing.T) {
			// 200k refs on a 1.5 MB circular set overflows one L2, so the
			// migration slow path is exercised from inside AccessBatch.
			const refs = 200_000
			ref := MustNew(cfg)
			driveMix(refSink{ref}, 24<<10, refs)
			want := machineState(t, ref)
			st := ref.Stats
			if st.L2Misses == 0 || (cfg.L3 != nil && st.L3Misses == 0) ||
				(cfg.Prefetch != nil && st.PrefetchIssued == 0) ||
				(cfg.BroadcastThreshold > 0 && st.SuppressedRegBytes == 0) ||
				(cfg.Migration != nil && cfg.Policy != migration.PolicyNever && st.Migrations == 0) {
				t.Fatalf("stream too small to exercise the configuration: %+v", st)
			}
			for _, n := range []int{1, 3, 129, mem.DefaultBatchLen} {
				t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
					m := MustNew(cfg)
					if n == 1 {
						driveMix(m, 24<<10, refs) // the one-record forwards
					} else {
						ba := mem.NewBatcher(m, n)
						driveMix(ba, 24<<10, refs)
						ba.Flush()
					}
					got := machineState(t, m)
					if got.stats != want.stats {
						t.Errorf("stats diverge:\nreference: %+v\nbatched:   %+v", want.stats, got.stats)
					}
					if !reflect.DeepEqual(got.tel, want.tel) {
						t.Errorf("telemetry diverges:\nreference: %+v\nbatched:   %+v", want.tel, got.tel)
					}
					if !reflect.DeepEqual(got.snap, want.snap) || !reflect.DeepEqual(got.policy, want.policy) {
						t.Error("machine state diverges between the reference and the batch kernel")
					}
				})
			}
		})
	}
}

// observed is everything a machine exposes about its run.
type observed struct {
	stats  Stats
	tel    telemetry.Snapshot
	snap   Snapshot
	policy migration.PolicyState
}

func machineState(t *testing.T, m *Machine) observed {
	t.Helper()
	o := observed{stats: m.FinalStats(), tel: m.Telemetry().Snapshot()}
	var err error
	if o.snap, err = m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if m.Policy() != nil {
		if o.policy, err = m.PolicyState(); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestAccessBatchPartialAndEmpty: AccessBatch must handle empty and
// partially filled batches (the tail flush of any stream).
func TestAccessBatchPartialAndEmpty(t *testing.T) {
	m := MustNew(NormalConfig())
	b := mem.NewBatch(64)
	m.AccessBatch(b) // empty: no-op
	if m.FinalStats() != (Stats{}) {
		t.Fatalf("empty batch mutated stats: %+v", m.FinalStats())
	}
	b.Append(mem.AddrOf(1, 6), mem.Load)
	b.AppendInstr(7)
	m.AccessBatch(b)
	st := m.FinalStats()
	if st.Loads != 1 || st.Instructions != 7 {
		t.Fatalf("partial batch: got loads=%d instrs=%d, want 1/7", st.Loads, st.Instructions)
	}
}

// TestAccessBatchRaggedPanics: the parallel-column invariant is a
// programming error worth failing loudly on.
func TestAccessBatchRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	m := MustNew(NormalConfig())
	m.AccessBatch(&mem.Batch{Addr: make([]mem.Addr, 2), Kind: make([]uint8, 1)})
}

// TestAccessBatchSteadyStateZeroAllocs extends the allocation gate to
// the batch kernel: once warm, AccessBatch must not allocate.
func TestAccessBatchSteadyStateZeroAllocs(t *testing.T) {
	for name, m := range steadyMachines() {
		g := trace.NewCircular(24 << 10)
		b := mem.NewBatch(512)
		fill := func() {
			b.Reset()
			for i := 0; !b.Full(); i++ {
				line := mem.Line(g.Next())
				switch i % 8 {
				case 0:
					b.Append(mem.AddrOf(line, 6), mem.IFetch)
				case 1:
					b.Append(mem.AddrOf(line, 6), mem.Store)
				default:
					b.Append(mem.AddrOf(line, 6), mem.Load)
				}
			}
		}
		fill()
		m.AccessBatch(b) // warm the batch path itself
		allocs := testing.AllocsPerRun(100, func() {
			fill()
			m.AccessBatch(b)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady-state AccessBatch; the //emlint:hotpath batch kernel must stay allocation-free", name, allocs)
		}
	}
}

// BenchmarkAccessBatchSteadyState is the batched counterpart of
// BenchmarkAccessSteadyState: same reference mix, delivered through
// mem.Batcher into AccessBatch in DefaultBatchLen batches.
func BenchmarkAccessBatchSteadyState(b *testing.B) {
	for name, m := range steadyMachines() {
		b.Run(name, func(b *testing.B) {
			g := trace.NewCircular(24 << 10)
			ba := mem.NewBatcher(m, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := mem.Line(g.Next())
				switch i % 8 {
				case 0:
					ba.Access(mem.AddrOf(line, 6), mem.IFetch)
				case 1:
					ba.Access(mem.AddrOf(line, 6), mem.Store)
				default:
					ba.Access(mem.AddrOf(line, 6), mem.Load)
				}
				ba.Instr(3)
			}
			ba.Flush()
		})
	}
}
