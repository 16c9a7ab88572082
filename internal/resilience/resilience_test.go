package resilience

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newTestBreaker(c *fakeClock) *Breaker   { return NewBreaker(BreakerOptions{Now: c.now}) }

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock)
	if got := b.State(); got != Closed {
		t.Fatalf("initial state = %v, want Closed", got)
	}
	for i := 0; i < threshold-1; i++ {
		b.Failure()
	}
	b.Success() // resets the streak
	for i := 0; i < threshold-1; i++ {
		b.Failure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("after interrupted streak state = %v, want Closed", got)
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after %d consecutive failures state = %v, want Open", threshold, got)
	}
	if b.Allow() {
		t.Fatal("Allow() = true while Open within cool-down")
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}
	if r := b.RemainingOpen(); r <= 0 || r > openFor {
		t.Fatalf("RemainingOpen() = %v, want (0, %v]", r, openFor)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock)
	for i := 0; i < threshold; i++ {
		b.Failure()
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open", got)
	}

	// Cool-down elapses: the next Allow admits a probe.
	clock.advance(openFor + time.Millisecond)
	if !b.Allow() {
		t.Fatal("Allow() = false after cool-down")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", got)
	}

	// A failed probe re-opens immediately.
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after failed probe state = %v, want Open", got)
	}

	// One successful probe closes it.
	clock.advance(openFor + time.Millisecond)
	if !b.Allow() {
		t.Fatal("Allow() = false after second cool-down")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after a probe success state = %v, want Closed", got)
	}
	if r := b.RemainingOpen(); r != 0 {
		t.Fatalf("RemainingOpen() on closed breaker = %v, want 0", r)
	}
}

func TestBreakerResetClearsHistory(t *testing.T) {
	clock := newFakeClock()
	b := newTestBreaker(clock)
	for i := 0; i < threshold; i++ {
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("Allow() = true while freshly Open")
	}
	b.Reset()
	if got := b.State(); got != Closed {
		t.Fatalf("after Reset state = %v, want Closed", got)
	}
	if !b.Allow() {
		t.Fatal("Allow() = false after Reset")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 42)
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 10 * time.Millisecond << attempt
		if ceil > 80*time.Millisecond {
			ceil = 80 * time.Millisecond
		}
		for i := 0; i < 200; i++ {
			if d := b.Delay(attempt); d < 0 || d > ceil {
				t.Fatalf("Delay(%d) = %v outside [0, %v]", attempt, d, ceil)
			}
			if d := b.DelayFloored(attempt); d < ceil/2 || d > ceil {
				t.Fatalf("DelayFloored(%d) = %v outside [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	a := NewBackoff(5*time.Millisecond, time.Second, 7)
	b := NewBackoff(5*time.Millisecond, time.Second, 7)
	for i := 0; i < 50; i++ {
		if da, db := a.Delay(i%6), b.Delay(i%6); da != db {
			t.Fatalf("seeded sequences diverge at draw %d: %v vs %v", i, da, db)
		}
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	retries := 0
	err := Do(context.Background(), RetryOptions{
		Attempts: 5,
		Backoff:  NewBackoff(time.Microsecond, time.Microsecond, 1),
		OnRetry:  func(int, time.Duration, error) { retries++ },
	}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls = %d retries = %d, want 3 and 2", calls, retries)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := Do(context.Background(), RetryOptions{
		Attempts:  5,
		Backoff:   NewBackoff(time.Microsecond, time.Microsecond, 1),
		Retryable: func(err error) bool { return !errors.Is(err, permanent) },
	}, func(context.Context) error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) {
		t.Fatalf("Do = %v, want permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of permanent errors)", calls)
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	const hint = 30 * time.Millisecond
	transient := errors.New("shed")
	var slept time.Duration
	start := time.Now()
	err := Do(context.Background(), RetryOptions{
		Attempts:   2,
		Backoff:    NewBackoff(time.Microsecond, time.Microsecond, 1),
		RetryAfter: func(error) (time.Duration, bool) { return hint, true },
		OnRetry:    func(_ int, d time.Duration, _ error) { slept = d },
	}, func(context.Context) error {
		if time.Since(start) < hint {
			return transient
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil after honoring hint", err)
	}
	if slept < hint {
		t.Fatalf("scheduled delay %v < server hint %v", slept, hint)
	}
}

func TestDoRespectsDeadlineBudget(t *testing.T) {
	transient := errors.New("transient")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	err := Do(ctx, RetryOptions{
		Attempts: 100,
		// Every sleep exceeds the whole budget, so Do must stop after
		// the first attempt instead of sleeping past the deadline.
		Backoff: NewBackoff(time.Second, time.Second, 1),
		RetryAfter: func(error) (time.Duration, bool) {
			return time.Second, true
		},
	}, func(context.Context) error {
		calls++
		return transient
	})
	if !errors.Is(err, transient) {
		t.Fatalf("Do = %v, want last transient error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (budget cannot cover any sleep)", calls)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Do took %v, should return well before the 1s sleep", elapsed)
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/query/sssp", nil).WithContext(ctx)
	PropagateDeadline(req)
	h := req.Header.Get(DeadlineHeader)
	if h == "" {
		t.Fatal("PropagateDeadline set no header despite a context deadline")
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 || ms > 250 {
		t.Fatalf("header %q: want integer in (0, 250]", h)
	}

	// Receiving side: Middleware turns the header into a context deadline.
	var got time.Duration
	var ok bool
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dl, has := r.Context().Deadline(); has {
			got, ok = time.Until(dl), true
		}
	})
	rec := httptest.NewRecorder()
	in := httptest.NewRequest(http.MethodGet, "/query/sssp", nil)
	in.Header.Set(DeadlineHeader, h)
	Middleware(inner).ServeHTTP(rec, in)
	if !ok {
		t.Fatal("middleware did not install a deadline from the header")
	}
	if got <= 0 || got > time.Duration(ms)*time.Millisecond {
		t.Fatalf("installed budget %v, want (0, %dms]", got, ms)
	}
}

func TestMiddlewareOnlyTightens(t *testing.T) {
	// A context that already expires sooner than the header must win.
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, has := r.Context().Deadline()
		if !has {
			t.Error("deadline lost")
			return
		}
		if remaining := time.Until(dl); remaining > 15*time.Millisecond {
			t.Errorf("remaining = %v, want <= 10ms (pre-existing deadline)", remaining)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
	r.Header.Set(DeadlineHeader, "60000")
	Middleware(inner).ServeHTTP(httptest.NewRecorder(), r)
}

func TestParseBudgetRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "abc", "-5", "0", "1.5", "9999999999999999999999"} {
		if _, ok := ParseBudget(bad); ok {
			t.Errorf("ParseBudget(%q) accepted, want rejected", bad)
		}
	}
	if d, ok := ParseBudget("1500"); !ok || d != 1500*time.Millisecond {
		t.Fatalf("ParseBudget(1500) = %v %v, want 1.5s true", d, ok)
	}
}

func TestEnsureBudget(t *testing.T) {
	// No deadline: the default is installed.
	ctx, cancel := EnsureBudget(context.Background(), 42*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > 42*time.Millisecond {
		t.Fatalf("EnsureBudget installed %v ok=%v, want <= 42ms deadline", time.Until(dl), ok)
	}

	// Existing deadline survives untouched.
	parent, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer pcancel()
	ctx2, cancel2 := EnsureBudget(parent, time.Hour)
	defer cancel2()
	dl2, _ := ctx2.Deadline()
	if time.Until(dl2) > 10*time.Millisecond {
		t.Fatalf("EnsureBudget replaced a tighter caller deadline: %v", time.Until(dl2))
	}
}
