// Package obs is the observability substrate of the serving stack:
// lock-free counters and gauges, log-bucketed latency histograms with
// quantile estimation, a labeled metric registry with Prometheus
// text-format exposition, and a bounded ring buffer for recent events
// (a host's apply traces, the cluster's topology changes).
//
// The paper's relative-boundedness guarantee (Theorem 3) is a statement
// about cost counters — reads, pops, |AFF| — as a function of |ΔG|, not
// |G|. This package exists to make those counters continuously visible
// on a live incgraphd: every metric here is written on the apply hot
// path, so all primitives are single atomic operations with no locks and
// no allocation after construction. Scrapes read the same atomics; they
// may observe a metric mid-batch, which is fine for monitoring.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. It holds a float64 so
// one type covers both event counts and accumulated seconds; integer
// adds up to 2^53 are exact.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v. Negative and non-finite deltas are
// a programmer error and are ignored: negatives would break
// monotonicity, and a single NaN or +Inf would poison the sum for the
// process's remaining lifetime (NaN passes a bare v < 0 check).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for {
		old := c.bits.Load()
		newv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a metric that can go up and down (a last-observed value).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Ring is a bounded, concurrency-safe ring buffer of the most recent n
// events. Push is O(1) and never allocates after the first lap; Snapshot
// copies out the retained events oldest-first.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

// NewRing returns a ring retaining the last n events (n >= 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Push appends v, evicting the oldest event once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		if len(r.buf) == cap(r.buf) {
			r.full = true
		}
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// Snapshot returns the retained events, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Len returns the number of retained events.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
