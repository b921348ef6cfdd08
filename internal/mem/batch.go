package mem

// Columnar record batches: the simulator's high-throughput event
// representation. A Batch carries up to a few thousand events as two
// parallel arrays (addresses and kind tags) instead of one interface
// call per event, so a consumer like machine.Machine can unroll its L1
// fast path over the whole batch and amortise every per-event cost —
// virtual dispatch, statistic increments, boundary checks — across
// DefaultBatchLen records. DESIGN.md §13 describes the layout and the
// event-numbering invariant batches must preserve.

// KindInstr is the batch record tag marking an instruction-count record:
// the record's Addr slot holds the committed-instruction count instead
// of an address. The value deliberately matches the EMTRACE2 record tag
// for instruction batches (0xFE), so a trace decoder can move tags into
// a Batch without translation. Tags 0..3 are the mem.Kind access kinds.
const KindInstr uint8 = 0xFE

// DefaultBatchLen is the default batch capacity in records. 4K records
// keep the two columns (32 KB of addresses + 4 KB of tags) streaming
// through the L1/L2 of a host core while still amortising per-batch
// bookkeeping over thousands of events.
const DefaultBatchLen = 4096

// Batch is a fixed-capacity columnar slice of the event stream:
// Addr[i] and Kind[i] together describe event i. For access records
// (Kind[i] <= 3) Addr[i] is the byte address and Kind[i] the mem.Kind;
// for instruction records (Kind[i] == KindInstr) Addr[i] holds the
// instruction count. The two slices always have equal length.
//
// A Batch is reused across deliveries: producers Reset and refill it,
// consumers must not retain the slices past the AccessBatch call.
type Batch struct {
	Addr []Addr
	Kind []uint8
}

// NewBatch returns an empty batch with capacity for n records.
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchLen
	}
	return &Batch{
		Addr: make([]Addr, 0, n),
		Kind: make([]uint8, 0, n),
	}
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.Kind) }

// Cap returns the record capacity.
func (b *Batch) Cap() int { return cap(b.Kind) }

// Full reports whether the batch has no room left.
func (b *Batch) Full() bool { return len(b.Kind) == cap(b.Kind) }

// Reset empties the batch, keeping its backing arrays.
func (b *Batch) Reset() {
	b.Addr = b.Addr[:0]
	b.Kind = b.Kind[:0]
}

// Append adds one access record. The caller must leave room (check
// Full first): the columns are extended within their existing capacity
// so the zero-allocation contract of the hot path holds, and appending
// to a full batch faults on the slice bound instead of reallocating.
//
//emlint:hotpath
func (b *Batch) Append(addr Addr, kind Kind) {
	n := len(b.Kind)
	b.Addr = b.Addr[: n+1 : cap(b.Addr)]
	b.Addr[n] = addr
	b.Kind = b.Kind[: n+1 : cap(b.Kind)]
	b.Kind[n] = uint8(kind)
}

// AppendInstr adds one instruction-count record.
//
//emlint:hotpath
func (b *Batch) AppendInstr(n uint64) {
	i := len(b.Kind)
	b.Addr = b.Addr[: i+1 : cap(b.Addr)]
	b.Addr[i] = Addr(n)
	b.Kind = b.Kind[: i+1 : cap(b.Kind)]
	b.Kind[i] = KindInstr
}

// BatchSink consumes the event stream in columnar batches. Inside the
// simulator AccessBatch is a consumer's one event kernel: the scalar
// Sink methods exist for producers that emit one record at a time, and
// a consumer implements them as forwards into AccessBatch through a
// Record, so the two entry points cannot disagree.
type BatchSink interface {
	Sink
	// AccessBatch delivers every record of b, in order. The batch's
	// backing arrays belong to the caller and may be reused immediately
	// after the call returns.
	AccessBatch(b *Batch)
}

// Record is a reusable one-record batch: the shared adapter through
// which a batch-kernel consumer keeps the scalar Sink methods as
// zero-alloc forwards:
//
//	func (s *T) Access(a mem.Addr, k mem.Kind) { s.AccessBatch(s.rec.Access(a, k)) }
//	func (s *T) Instr(n uint64)                { s.AccessBatch(s.rec.Instr(n)) }
//
// The zero value is ready to use; the returned batch is valid until the
// next call.
type Record struct {
	addr [1]Addr
	kind [1]uint8
	b    Batch
}

// Access returns a batch holding the one access record (addr, kind).
//
//emlint:hotpath
func (r *Record) Access(addr Addr, kind Kind) *Batch {
	r.addr[0], r.kind[0] = addr, uint8(kind)
	return r.batch()
}

// Instr returns a batch holding the one instruction record n.
//
//emlint:hotpath
func (r *Record) Instr(n uint64) *Batch {
	r.addr[0], r.kind[0] = Addr(n), KindInstr
	return r.batch()
}

func (r *Record) batch() *Batch {
	r.b.Addr, r.b.Kind = r.addr[:], r.kind[:]
	return &r.b
}

// DeliverBatch replays a batch record-by-record into a scalar Sink: it
// lets a record-at-a-time consumer (a counter, a trace writer, a test
// recorder) stand where a BatchSink is expected.
func DeliverBatch(b *Batch, s Sink) {
	kinds := b.Kind
	addrs := b.Addr
	for i, k := range kinds {
		if k == KindInstr {
			s.Instr(uint64(addrs[i]))
			continue
		}
		s.Access(addrs[i], Kind(k))
	}
}

// Batcher adapts the scalar Sink interface to a batch kernel: per-event
// pushes accumulate into an internal batch that is flushed to the
// consumer whenever it fills, and whole batches pass straight through
// after any pending records. It lets unmodified workload generators
// feed a batch kernel; the producer must call Flush when its stream
// ends or trailing records are lost.
type Batcher struct {
	out interface{ AccessBatch(*Batch) }
	b   *Batch
}

// NewBatcher returns a Batcher feeding out in batches of n records
// (n <= 0 selects DefaultBatchLen).
func NewBatcher(out interface{ AccessBatch(*Batch) }, n int) *Batcher {
	return &Batcher{out: out, b: NewBatch(n)}
}

// Access implements Sink.
//
//emlint:hotpath
func (ba *Batcher) Access(addr Addr, kind Kind) {
	ba.b.Append(addr, kind)
	if ba.b.Full() {
		ba.Flush()
	}
}

// Instr implements Sink.
//
//emlint:hotpath
func (ba *Batcher) Instr(n uint64) {
	ba.b.AppendInstr(n)
	if ba.b.Full() {
		ba.Flush()
	}
}

// AccessBatch implements BatchSink: buffered records flush first, so
// stream order holds across mixed producers, then b passes through.
func (ba *Batcher) AccessBatch(b *Batch) {
	ba.Flush()
	ba.out.AccessBatch(b)
}

// Flush delivers any buffered records to the consumer.
//
//emlint:hotpath
func (ba *Batcher) Flush() {
	if ba.b.Len() == 0 {
		return
	}
	ba.out.AccessBatch(ba.b)
	ba.b.Reset()
}

var _ BatchSink = (*Batcher)(nil)
