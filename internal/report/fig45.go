package report

import (
	"fmt"
	"strings"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// ProfileResult is one benchmark's panel of Figures 4/5: the single-stack
// profile p1(x), the 4-way split profile p4(x), and the transition
// frequency of the splitter.
type ProfileResult struct {
	Workload   string
	Instr      uint64
	Refs       uint64 // L1-filtered references profiled
	Thresholds []int64
	P1, P4     []float64
	TransFreq  float64
	// MaxLines is the per-stack live-line cap (0 = unbounded); Dropped
	// counts the stack entries it evicted across all five stacks.
	MaxLines int64
	Dropped  uint64
}

// profiler implements mem.Sink: it filters the stream through 16 KB
// fully-associative LRU IL1/DL1 caches (§4.1) and feeds the misses to
// both the single LRU stack (p1) and the 4-way splitter + 4 stacks (p4).
type profiler struct {
	il1, dl1 *cache.FullyAssoc
	single   *lrustack.Stack
	split    *affinity.Splitter
	multi    *lrustack.MultiStack
	instr    uint64
	shift    uint
}

func newProfiler(thresholds []int64, shift uint, maxLines int64) *profiler {
	linesPerL1 := (16 << 10) >> shift
	return &profiler{
		il1:    cache.NewFullyAssoc(linesPerL1),
		dl1:    cache.NewFullyAssoc(linesPerL1),
		single: lrustack.New(thresholds, maxLines),
		split:  affinity.NewSplitter(affinity.Fig45Config(), affinity.NewUnbounded()),
		multi:  lrustack.NewMultiStack(4, thresholds, maxLines),
		shift:  shift,
	}
}

// Access implements mem.Sink.
func (p *profiler) Access(addr mem.Addr, kind mem.Kind) {
	line := mem.LineOf(addr, p.shift)
	l1 := p.dl1
	if kind == mem.IFetch {
		l1 = p.il1
	}
	// §4.1 does not distinguish loads from stores: the filter caches
	// allocate on every miss.
	if l1.Ref(line) {
		return
	}

	// p1: single unbounded stack.
	p.single.Ref(line)
	// p4: the 4-way splitter routes the reference to one of 4 stacks;
	// the transition filter updates on every reference (no L2 filtering
	// in this experiment — §4.1: "We do not apply L2 filtering ... as
	// the L2 is not defined").
	sub := p.split.Ref(line, true)
	p.multi.Ref(sub, line)
}

// Instr implements mem.Sink.
func (p *profiler) Instr(n uint64) { p.instr += n }

// LRUProfileCapped runs a workload through the §4.1 experiment and
// returns its p1/p4 profiles, with the profiler's memory bounded: each
// LRU stack (the single p1 stack and the four p4 stacks) tracks at
// most maxLines live lines, evicting its least recently used entry past
// the cap (0 = unbounded). The curves stay exact for thresholds up to
// maxLines — so maxLines >= the largest threshold (256k lines for the
// paper's 16 MB point) bounds memory without perturbing the figures —
// and the evictions are accounted in ProfileResult.Dropped.
func LRUProfileCapped(w workloads.Workload, budget uint64, lineShift uint, maxLines int64) ProfileResult {
	if lineShift == 0 {
		lineShift = mem.DefaultLineShift
	}
	th := lrustack.PaperThresholds(lineShift)
	p := newProfiler(th, lineShift, maxLines)
	w.Run(p, budget)

	p1, p4 := p.single.Profile(), p.multi.Profile()
	res := ProfileResult{
		Workload:   w.Name(),
		Instr:      p.instr,
		Refs:       p1.Refs,
		Thresholds: th,
		MaxLines:   maxLines,
		Dropped:    p.single.Dropped() + p.multi.Dropped(),
	}
	for i := range th {
		res.P1 = append(res.P1, p1.Frac(i))
		res.P4 = append(res.P4, p4.Frac(i))
	}
	if p.split.Refs() > 0 {
		res.TransFreq = float64(p.split.Transitions()) / float64(p.split.Refs())
	}
	return res
}

// Splittable reports whether the profile shows meaningful splittability:
// the maximum gap p1(x) − p4(x) over thresholds of at least 64 KB, and
// whether it exceeds 0.05 (the visual separation evident in the paper's
// figures for art, ammp, bh, health, ...).
//
// Thresholds below 64 KB are excluded: at sizes comparable to the 16 KB
// L1 filter, four stacks of size x trivially behave like one stack of
// size 4x for ANY stream (a pure capacity effect on the filtered
// stream's hot residue), which says nothing about working-set splitting
// — the machine's migration trade happens at the 512 KB per-core L2.
func (r ProfileResult) Splittable() (maxGap float64, splittable bool) {
	minLines := int64((64 << 10) >> mem.DefaultLineShift)
	for i := range r.P1 {
		if r.Thresholds[i] < minLines {
			continue
		}
		if g := r.P1[i] - r.P4[i]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap, maxGap > 0.05
}

// sizeLabel renders a threshold (in lines) as the paper's x-axis labels.
func sizeLabel(lines int64, shift uint) string {
	bytes := lines << shift
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dM", bytes>>20)
	default:
		return fmt.Sprintf("%dk", bytes>>10)
	}
}

// RenderProfile draws one Figure 4/5 panel: two curves over the size
// axis ('N' = normal/p1, 'S' = split/p4, '*' where they coincide).
func RenderProfile(r ProfileResult, height int) string {
	if height < 6 {
		height = 18
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d refs profiled, transition freq %.4f", r.Workload, r.Refs, r.TransFreq)
	if r.MaxLines > 0 {
		fmt.Fprintf(&b, ", %d stack entries dropped (cap %d lines/stack)", r.Dropped, r.MaxLines)
	}
	b.WriteByte('\n')
	cols := len(r.Thresholds)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols*6))
	}
	put := func(col int, frac float64, ch byte) {
		y := int(float64(height-1) * (1 - frac))
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		x := col*6 + 2
		if grid[y][x] != ' ' && grid[y][x] != ch {
			grid[y][x] = '*'
		} else {
			grid[y][x] = ch
		}
	}
	for i := range r.Thresholds {
		put(i, r.P1[i], 'N')
		put(i, r.P4[i], 'S')
	}
	b.WriteString("1.0 |")
	b.WriteString(string(grid[0]))
	b.WriteByte('\n')
	for i := 1; i < height; i++ {
		label := "    "
		if i == height-1 {
			label = "0.0 "
		} else if i == height/2 {
			label = "0.5 "
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(grid[i]))
	}
	b.WriteString("     ")
	for _, th := range r.Thresholds {
		fmt.Fprintf(&b, "%-6s", sizeLabel(th, mem.DefaultLineShift))
	}
	b.WriteString("\n      N = normal (p1), S = split (p4), * = overlap\n")
	return b.String()
}
