package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results come back in input order for every worker
// count, including counts far above the job count.
func TestMapOrdering(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 3, 16, 200} {
		got, err := Map(context.Background(), n, Config{Workers: workers},
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapSerialEqualsParallel: the parallel pool and the serial path
// produce identical result slices when jobs are deterministic.
func TestMapSerialEqualsParallel(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("job-%d", i*7%13), nil
	}
	serial, err := Map(context.Background(), 50, Config{Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), 50, Config{Workers: 8}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("results[%d]: serial %q != parallel %q", i, serial[i], parallel[i])
		}
	}
}

// TestMapError: a failing job cancels the run; the reported index is
// the lowest failing one, wrapped so errors.Is sees the cause.
func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), 20, Config{Workers: workers},
			func(_ context.Context, i int) (int, error) {
				if i == 3 || i == 17 {
					return 0, sentinel
				}
				return i, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap sentinel", workers, err)
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: error %v is not a JobError", workers, err)
		}
		// Serial stops at the first failure deterministically; parallel
		// reports the lowest observed failure, which is 3 unless the
		// scheduler never ran job 3 before cancellation — but job 3
		// always runs (cancellation only skips jobs after the failure
		// is recorded, and 3 is the first failure any worker can hit
		// before 17 only... both may run; the reported index must be
		// one of the failing jobs).
		if je.Index != 3 && je.Index != 17 {
			t.Fatalf("workers=%d: failing index %d, want 3 or 17", workers, je.Index)
		}
		if workers == 1 && je.Index != 3 {
			t.Fatalf("serial: failing index %d, want 3", je.Index)
		}
	}
}

// TestMapErrorNotHiddenByCancellation: a job that a later job's
// failure cancels returns the cancellation, and that must not stand in
// for the failure even though its index is lower.
func TestMapErrorNotHiddenByCancellation(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), 2, Config{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				return 0, sentinel
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 || !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want job 1's sentinel", err)
	}
}

// TestMapCancellation: cancelling the context stops the run promptly
// and surfaces ctx.Err.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := Map(ctx, 1000, Config{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 950 {
		t.Fatalf("cancellation did not stop the feed: %d jobs started", n)
	}
}

// TestMapProgress: OnDone fires exactly once per job, with each index.
func TestMapProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		seen := make(map[int]int)
		_, err := Map(context.Background(), 30, Config{
			Workers: workers,
			OnDone:  func(i int) { seen[i]++ }, // serialised by Map
		}, func(_ context.Context, i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 30 {
			t.Fatalf("workers=%d: OnDone saw %d distinct jobs, want 30", workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: OnDone fired %d times for job %d", workers, c, i)
			}
		}
	}
}

// TestMapEmpty: zero jobs is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, Config{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("job ran")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}
