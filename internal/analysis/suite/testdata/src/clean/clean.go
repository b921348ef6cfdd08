// Package clean is the suite-wide negative fixture: it exercises the
// territory every emlint analyzer patrols — fallible construction,
// mutex-guarded state, a bounded goroutine fan-out and a written file —
// written the way the repository's invariants demand, so the whole
// suite must report nothing.
package clean

import (
	"fmt"
	"os"
	"sync"
)

// Counter aggregates event counts.
type Counter struct {
	counts map[string]uint64
	total  uint64
	limit  int
}

// NewCounter returns an error for bad configuration instead of panicking.
func NewCounter(limit int) (*Counter, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("limit must be positive, got %d", limit)
	}
	return &Counter{counts: make(map[string]uint64), limit: limit}, nil
}

// Add records one event.
func (c *Counter) Add(name string) {
	c.counts[name]++
	c.total++
}

// Save writes the total out, folding the Close error into the return.
func (c *Counter) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = fmt.Fprintf(f, "%d\n", c.total)
	return err
}

// Gauge is concurrent state under a declared lock contract.
type Gauge struct {
	mu sync.Mutex
	//emlint:guardedby mu
	value uint64
}

// Set replaces the value under the lock.
func (g *Gauge) Set(v uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.value = v
}

// Value reads under the lock.
func (g *Gauge) Value() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.value
}

// Sum fans work out to goroutines that write job-indexed slots.
func Sum(jobs [][]int) []int {
	results := make([]int, len(jobs))
	done := make(chan struct{})
	for i, job := range jobs {
		//emlint:detached bounded by the done channel: Sum receives once per goroutine before returning
		go func(i int, job []int) {
			n := 0
			for _, v := range job {
				n += v
			}
			results[i] = n
			done <- struct{}{}
		}(i, job)
	}
	for range jobs {
		<-done
	}
	return results
}
