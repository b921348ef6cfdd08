package health

import (
	"time"

	"repro/internal/trace"
)

// Backoff computes retry delays with exponential growth and full
// jitter: attempt n draws uniformly from [0, min(Cap, Base·2ⁿ)]. Full
// jitter (rather than equal or decorrelated jitter) is the policy that
// best de-synchronises a thundering herd of clients retrying against
// one recovering emsimd — every retry lands at an independent uniform
// point of the window instead of the same exponential instants.
//
// Retrying a simulation request at all is safe because requests are
// idempotent by content address: a /run result is fully determined by
// its canonical spec, the service's cache and store are keyed by that
// spec's SHA-256, and first-result-wins means a duplicate computation
// can only ever produce the byte-identical body the first one did. A
// retried request can cost duplicate work, never a divergent result.
type Backoff struct {
	// Base is attempt 0's maximum delay (default 200ms).
	Base time.Duration
	// Cap bounds the delay window (default 5s).
	Cap time.Duration

	rng *trace.RNG
}

// NewBackoff builds a jittered backoff. The jitter source is seeded
// from the wall clock: unlike every simulation path, retry scheduling
// *should* differ between two clients started at the same command
// line — identical seeds would re-synchronise the herd the jitter
// exists to spread out.
func NewBackoff(base, cap time.Duration) *Backoff {
	seed := uint64(time.Now().UnixNano())
	return &Backoff{Base: base, Cap: cap, rng: trace.NewRNG(seed)}
}

// NewSeededBackoff is NewBackoff with a fixed seed, for deterministic
// tests.
func NewSeededBackoff(base, cap time.Duration, seed uint64) *Backoff {
	return &Backoff{Base: base, Cap: cap, rng: trace.NewRNG(seed)}
}

// Delay returns the full-jitter delay for the given zero-based
// attempt: uniform in [0, window] where window = min(Cap, Base·2ⁿ).
func (b *Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 5 * time.Second
	}
	window := base
	for i := 0; i < attempt && window < cap; i++ {
		window *= 2
	}
	if window > cap {
		window = cap
	}
	return time.Duration(b.rng.Uint64n(uint64(window) + 1))
}
