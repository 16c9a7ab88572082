package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position: Closed (traffic flows), Open
// (traffic is refused while the target cools down), or HalfOpen
// (limited trial traffic probes whether the target recovered).
type State int32

// Breaker states. The zero value Closed is the healthy position.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state for logs and gauges.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The breaker's policy, the same for every target: threshold consecutive
// failures trip it Open, it refuses traffic for openFor, and
// probeSuccesses consecutive half-open successes close it again.
const (
	threshold      = 5
	openFor        = time.Second
	probeSuccesses = 1
)

// BreakerOptions tunes a Breaker.
type BreakerOptions struct {
	// Now overrides the clock for tests. Default time.Now.
	Now func() time.Time
}

// Breaker is a per-target circuit breaker. Callers ask Allow before a
// request and report Success or Failure after; consecutive failures trip
// it Open, a cool-down later it admits half-open probes, and probe
// successes close it. All methods are safe for concurrent use.
type Breaker struct {
	opt BreakerOptions

	mu     sync.Mutex
	state  State
	fails  int       // consecutive failures while Closed
	probes int       // consecutive successes while HalfOpen
	until  time.Time // when an Open breaker starts admitting probes
	opens  uint64    // lifetime Closed/HalfOpen → Open transitions
}

// NewBreaker returns a Breaker in the Closed state.
func NewBreaker(opt BreakerOptions) *Breaker {
	if opt.Now == nil {
		opt.Now = time.Now
	}
	return &Breaker{opt: opt}
}

// Allow reports whether a request may proceed. While Open it returns
// false until the cool-down elapses, at which point the breaker moves
// to HalfOpen and admits trial requests — those requests are the
// probes, so their outcomes (reported via Success/Failure) decide
// whether the breaker closes or re-opens.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open {
		if b.opt.Now().Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.probes = 0
	}
	return true
}

// Success records a successful request, resetting the failure streak
// and — in HalfOpen — counting toward the probe successes that close
// the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.probes++
		if b.probes >= probeSuccesses {
			b.state = Closed
			b.fails = 0
		}
	}
	// A success that straggles in while Open (from a request admitted
	// before the trip) proves nothing about recovery; ignore it.
}

// Failure records a failed request. In Closed it extends the streak and
// trips the breaker at the threshold; in HalfOpen a single failed probe
// re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= threshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.fails = 0
	b.until = b.opt.Now().Add(openFor)
	b.opens++
}

// State returns the breaker's current position. An Open breaker whose
// cool-down has elapsed still reports Open until the next Allow admits
// a probe.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RemainingOpen returns how long until an Open breaker starts admitting
// probes (zero when not Open or already due). It is the honest basis
// for a Retry-After hint on shed traffic.
func (b *Breaker) RemainingOpen() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return 0
	}
	d := b.until.Sub(b.opt.Now())
	if d < 0 {
		return 0
	}
	return d
}

// Opens returns the lifetime count of trips to Open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Reset forces the breaker back to Closed with a clean slate. The
// router calls it when a slot's generation changes — a promoted replica
// must not inherit the failure history of the process it replaced.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probes = 0
}
