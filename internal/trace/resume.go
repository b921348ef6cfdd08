package trace

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Resumable replay. A trace is a delta-encoded record stream under one
// running CRC, so decoding from the middle needs what the decoder
// carries across records: the byte offset, the running CRC, the four
// per-kind delta registers and the event count. A Position holds
// exactly that at a batch start, and BatchReader.Resume continues from
// one as if it had decoded everything before it.

// Position is a point a BatchReader can resume at: the start of a
// record, with the decoder state every later record depends on.
type Position struct {
	// Offset is the stream offset of the next record, header included.
	Offset int64
	// CRC is the running CRC of the body bytes before Offset (version
	// 2; always 0 for version 1).
	CRC uint32
	// Last holds the previous address of each access kind, the base of
	// the next delta of that kind.
	Last [4]uint64
	// Events counts the records decoded before Offset.
	Events uint64
}

// Position reports where the next batch starts. Every NextBatch call
// ends on a record boundary, so any point between calls is resumable.
func (t *BatchReader) Position() Position {
	t.flushCRC()
	return Position{Offset: t.offset(), CRC: t.crc, Last: t.last, Events: t.st.Events}
}

// Resume moves a reader whose header NewBatchReader has validated to p,
// a position a reader of the same trace reported. The underlying reader
// must be an io.Seeker. Decoding continues exactly as it would have at
// p: the running CRC and event count carry forward, so a resumed replay
// that reaches the footer still verifies the whole trace's CRC and
// declared event count, and damage after p is the same typed error at
// the same offset as in a full replay.
func (t *BatchReader) Resume(p Position) error {
	s, ok := t.r.(io.Seeker)
	if !ok {
		return errors.New("trace: resume needs a seekable reader")
	}
	if header := int64(len(traceMagicV1) + t.version - 1); p.Offset < header {
		return fmt.Errorf("trace: resume offset %d lies inside the %d-byte header", p.Offset, header)
	}
	if _, err := s.Seek(p.Offset, io.SeekStart); err != nil {
		return err
	}
	t.off, t.pos, t.n, t.crcPos = p.Offset, 0, 0, 0
	t.eof, t.done = false, false
	t.crc, t.last = p.CRC, p.Last
	t.st = ReplayStats{Events: p.Events}
	return nil
}

// Index bounds. Positions are 56 bytes, so a full index is about
// 0.9 MB. Positions indexStride events apart cover the first 268M
// events; past that every other position is dropped and the stride
// doubles, so the 623M events of a 1B-instruction em3d trace keep
// positions 64K events apart.
const (
	indexStride = 1 << 14 // events between positions, initially
	indexCap    = 1 << 14 // positions kept before the stride doubles
)

// Index is a bounded set of resume positions, recorded by ReplayIndexed
// while it reads. With full DefaultBatchLen batches the positions lie
// exactly Stride events apart from event 0. The zero Index is ready to
// record.
type Index struct {
	Positions []Position // ascending
	stride    uint64
	next      uint64 // the event of the next position to record
}

// Stride is the number of events between consecutive positions.
func (x *Index) Stride() uint64 {
	if x.stride == 0 {
		return indexStride
	}
	return x.stride
}

// note records t's position if the reader has reached the next one.
func (x *Index) note(t *BatchReader) {
	ev := t.st.Events
	if ev < x.next {
		return
	}
	x.stride = x.Stride()
	if len(x.Positions) == indexCap {
		kept := x.Positions[:0]
		for i := 0; i < len(x.Positions); i += 2 {
			kept = append(kept, x.Positions[i])
		}
		x.Positions = kept
		x.stride *= 2
		if x.next = kept[len(kept)-1].Events + x.stride; ev < x.next {
			return
		}
	}
	x.Positions = append(x.Positions, t.Position())
	for x.next <= ev {
		x.next += x.stride
	}
}

// ReplayIndexed is ReplayBatches that records idx's positions at batch
// starts as it reads; a nil idx records none.
func (t *BatchReader) ReplayIndexed(sink mem.BatchSink, b *mem.Batch, idx *Index) (uint64, error) {
	if b == nil {
		b = mem.NewBatch(0)
	}
	for {
		if idx != nil && !t.done {
			idx.note(t)
		}
		b.Reset()
		_, err := t.NextBatch(b)
		if b.Len() > 0 {
			sink.AccessBatch(b)
		}
		if err == io.EOF {
			return t.st.Events, nil
		}
		if err != nil {
			return t.st.Events, err
		}
	}
}
