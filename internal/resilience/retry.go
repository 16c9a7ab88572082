package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes retry delays with exponential growth and full
// jitter: attempt k draws uniformly from [0, min(Max, Base·2^k)].
// Full jitter decorrelates concurrent retriers — after a shared blip,
// clients that all failed together do not all retry together. A single
// Backoff is safe for concurrent use and, given a fixed seed, produces
// a deterministic delay sequence (serialized by its internal mutex).
type Backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns a Backoff growing from base to at most max, with
// jitter drawn from a generator seeded with seed. Both bounds must be
// positive.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the sleep before retry attempt k (first retry is
// attempt 0): uniform over [0, min(Max, Base·2^k)].
func (b *Backoff) Delay(attempt int) time.Duration {
	ceil := b.ceiling(attempt)
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.rng.Int63n(int64(ceil) + 1))
}

// DelayFloored is Delay with a floor of half the current ceiling
// ("equal jitter"): uniform over [ceil/2, ceil]. Restart loops use it —
// a supervisor that sleeps ~0 before respawning a crash-looping child
// burns CPU for nothing, while a retry that fires early merely races a
// recovered peer.
func (b *Backoff) DelayFloored(attempt int) time.Duration {
	ceil := b.ceiling(attempt)
	half := ceil / 2
	b.mu.Lock()
	defer b.mu.Unlock()
	return half + time.Duration(b.rng.Int63n(int64(ceil-half)+1))
}

func (b *Backoff) ceiling(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	ceil := b.base
	for i := 0; i < attempt && ceil < b.max; i++ {
		ceil *= 2
	}
	if ceil > b.max {
		ceil = b.max
	}
	return ceil
}

// RetryOptions configures Do. It stays an options struct because its two
// callers, the router's shard calls and its cluster scrapes, make
// different numbers of attempts.
type RetryOptions struct {
	// Attempts is the total number of tries, including the first; Do
	// always makes one.
	Attempts int
	// Backoff supplies inter-attempt delays; it must be set.
	Backoff *Backoff
	// Retryable, when non-nil, filters which errors are worth another
	// attempt; a false verdict returns the error immediately. Permanent
	// errors (4xx semantics, closed breakers) should report false.
	Retryable func(error) bool
	// RetryAfter, when non-nil, extracts a server-directed minimum delay
	// hint from an error (e.g. a 503's Retry-After header). The actual
	// sleep is the larger of the hint and the jittered backoff.
	RetryAfter func(error) (time.Duration, bool)
	// OnRetry, when non-nil, observes each scheduled retry: the attempt
	// number about to run (1-based), the sleep chosen, and the error
	// that caused it. Used to feed retry counters and breakers.
	OnRetry func(attempt int, delay time.Duration, err error)
}

// Do runs op up to opt.Attempts times, sleeping a jittered backoff
// between tries. It spends only from ctx's budget: when the remaining
// deadline cannot cover the next sleep, Do gives up and returns the
// last error instead of sleeping past the caller's patience. The
// context passed to op is ctx itself, so op's own I/O is equally
// bounded.
func Do(ctx context.Context, opt RetryOptions, op func(context.Context) error) error {
	var err error
	for i := 0; ; i++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			if err == nil {
				err = ctxErr
			}
			return err
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if opt.Retryable != nil && !opt.Retryable(err) {
			return err
		}
		if i >= opt.Attempts-1 {
			return err
		}
		delay := opt.Backoff.Delay(i)
		if opt.RetryAfter != nil {
			if hint, ok := opt.RetryAfter(err); ok && hint > delay {
				delay = hint
			}
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			return err // the budget can't cover the sleep; stop here
		}
		if opt.OnRetry != nil {
			opt.OnRetry(i+1, delay, err)
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}
