// Package prefetch implements a stream/stride prefetcher for the L2
// miss stream, the substrate for the paper's §6 question: "Future
// research should determine how to best combine prefetching and
// execution migration. ... much of the splittability we observed seems
// to come from circular working-set behaviors on which prefetching is
// likely to succeed. However, prefetching into a 'larger' cache leaves
// more room for the unpredictable portion of the working-set."
//
// The prefetcher is a classic stream table: each entry tracks a last
// line, a stride and a 2-bit confidence. A miss matching an entry's
// prediction raises confidence and, once trained, prefetches the next
// Degree lines of the stream. Misses matching no entry allocate one
// (LRU).
package prefetch

import "repro/internal/mem"

// Config dimensions the prefetcher.
type Config struct {
	// Streams is the number of concurrently tracked streams
	// (default 16).
	Streams int
	// Degree is how many lines ahead a trained stream prefetches
	// (default 2).
	Degree int
	// MaxStride bounds the detected stride magnitude in lines
	// (default 8; larger deltas are treated as new streams).
	MaxStride int64
}

// Default returns Streams 16, Degree 2, MaxStride 8.
func Default() Config { return Config{Streams: 16, Degree: 2, MaxStride: 8} }

func (c *Config) fill() {
	if c.Streams == 0 {
		c.Streams = 16
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.MaxStride == 0 {
		c.MaxStride = 8
	}
}

type stream struct {
	last       mem.Line
	stride     int64
	confidence uint8
	stamp      uint64
	valid      bool
}

// Prefetcher detects strided streams in a miss sequence.
type Prefetcher struct {
	cfg     Config // not checkpointed: configuration; states restore into an identically configured prefetcher
	streams []stream
	clock   uint64
	buf     []mem.Line // not checkpointed: per-OnMiss scratch, valid only until the next call

	// Trained counts misses that matched a trained stream.
	Trained uint64
	// Allocated counts stream-table allocations.
	Allocated uint64
}

// New builds a prefetcher.
func New(cfg Config) *Prefetcher {
	cfg.fill()
	return &Prefetcher{
		cfg:     cfg,
		streams: make([]stream, cfg.Streams),
		buf:     make([]mem.Line, 0, cfg.Degree),
	}
}

// OnMiss observes one miss and returns the lines to prefetch (valid
// until the next call).
func (p *Prefetcher) OnMiss(line mem.Line) []mem.Line {
	p.clock++
	p.buf = p.buf[:0]

	// Find the stream whose prediction or neighbourhood this miss
	// extends: prefer an exact prediction match, else the nearest
	// stream within MaxStride.
	best, bestDist := -1, p.cfg.MaxStride+1
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		d := int64(line) - int64(s.last)
		if d < 0 {
			d = -d
		}
		if d == 0 {
			// repeat miss of the same line: refresh recency only
			s.stamp = p.clock
			return p.buf
		}
		if d <= p.cfg.MaxStride && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		// allocate LRU entry
		victim := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].stamp < p.streams[victim].stamp {
				victim = i
			}
		}
		p.streams[victim] = stream{last: line, stride: 0, valid: true, stamp: p.clock}
		p.Allocated++
		return p.buf
	}

	s := &p.streams[best]
	delta := int64(line) - int64(s.last)
	if s.stride == delta {
		if s.confidence < 3 {
			s.confidence++
		}
	} else {
		s.stride = delta
		s.confidence = 1
	}
	s.last = line
	s.stamp = p.clock
	if s.confidence >= 2 {
		p.Trained++
		next := int64(line)
		for k := 0; k < p.cfg.Degree; k++ {
			next += s.stride
			if next < 0 {
				break
			}
			p.buf = append(p.buf, mem.Line(next))
		}
		// Run ahead: remember the furthest prefetched line so the next
		// demand miss (stride lines past it) still reads as the same
		// stream instead of a stride change.
		if len(p.buf) > 0 {
			s.last = p.buf[len(p.buf)-1]
		}
	}
	return p.buf
}
