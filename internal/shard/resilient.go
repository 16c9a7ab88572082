package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"incgraph/internal/obs"
	"incgraph/internal/resilience"
)

// This file is the router's resilience plane: deadline budgets on every
// request, retried shard calls with jittered backoff, per-slot circuit
// breakers wired into the routing table's generations, and
// replica-backed stale reads for degraded queries. The mechanisms live
// in internal/resilience; this file binds them to shards.

// The router's resilience policy. Each number is written here once; a
// slot's breaker runs internal/resilience's one policy.
const (
	// defaultBudget bounds a request that arrives with neither a context
	// deadline nor an X-Incgraph-Deadline header.
	defaultBudget = 30 * time.Second
	// shardAttempts is the tries per shard call, the first included, and
	// scrapeAttempts the tries per cluster scrape.
	shardAttempts  = 3
	scrapeAttempts = 2
	// retryBase and retryMax bound the full-jitter backoff between
	// retries; retrySeed seeds its jitter.
	retryBase = 25 * time.Millisecond
	retryMax  = time.Second
	retrySeed = 1
	// hedgeAfter is how long a view fetch waits on the primary before
	// racing the shard's replica.
	hedgeAfter = 100 * time.Millisecond
)

// slotGuard pairs a slot's breaker with the table generation it was
// built for, so a promotion resets the failure history.
type slotGuard struct {
	breaker *resilience.Breaker
	gen     int
}

// initResilience builds the per-slot breakers, the shared backoff, and
// the resilience metric series. Called from NewRouter.
func (rt *Router) initResilience(reg *obs.Registry) {
	rt.backoff = resilience.NewBackoff(retryBase, retryMax, retrySeed)
	rt.guards = make([]*slotGuard, rt.part.Shards())
	for i := range rt.guards {
		rt.guards[i] = &slotGuard{breaker: resilience.NewBreaker(resilience.BreakerOptions{})}
	}
	rt.retriesTotal = reg.Counter("incrouter_retries_total", "Shard calls retried after a transient failure.")
	rt.breakerOpens = reg.Counter("incrouter_breaker_opens_total", "Per-shard circuit breaker trips to open.")
	rt.deadlineHits = reg.Counter("incrouter_deadline_exceeded_total", "Shard calls abandoned because the request's deadline budget ran out.")
	rt.degradedQueries = reg.Counter("incrouter_degraded_queries_total", "Cross-shard queries answered with degraded partial results.")
	rt.staleReads = reg.Counter("incrouter_stale_replica_reads_total", "Shard views served stale from a replica surface.")
	rt.hedgedReads = reg.Counter("incrouter_hedged_reads_total", "View fetches hedged to a replica after a slow primary.")
	for i := range rt.guards {
		br := rt.guards[i].breaker
		reg.GaugeFunc("incrouter_breaker_state",
			"Breaker position per shard: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(br.State()) },
			obs.L("shard", strconv.Itoa(i)))
	}
}

// guard returns slot i's breaker, resetting it when the slot's table
// generation changed since the last look — a freshly promoted member
// must not inherit the failure streak of the process it replaced.
func (rt *Router) guard(i int) *resilience.Breaker {
	gen := rt.table.Generation(i)
	rt.guardMu.Lock()
	defer rt.guardMu.Unlock()
	g := rt.guards[i]
	if g.gen != gen {
		g.breaker.Reset()
		g.gen = gen
	}
	return g.breaker
}

// breakerFailure feeds a failure to br, counting the trip if this one
// opened it.
func (rt *Router) breakerFailure(br *resilience.Breaker) {
	before := br.Opens()
	br.Failure()
	if br.Opens() > before {
		rt.breakerOpens.Inc()
	}
}

// errBreakerOpen is a shard call refused locally because the slot's
// breaker is open (or the slot has no address). It is not retryable —
// the whole point of the breaker is to stop hammering the target.
type errBreakerOpen struct {
	shard int
	wait  time.Duration
}

// Error implements error.
func (e errBreakerOpen) Error() string {
	return fmt.Sprintf("shard %d breaker is open (retry in %s)", e.shard, e.wait.Round(time.Millisecond))
}

// isBreakerOpen reports whether err is a local breaker refusal.
func isBreakerOpen(err error) bool {
	var e errBreakerOpen
	return errors.As(err, &e)
}

// isBreakerFailure decides which errors count toward opening a breaker:
// network-level failures and 5xx brokenness do; 503 sheds do not (a
// shedding shard is alive and asking for patience, and opening on sheds
// would turn overload into outage), and 4xx never do.
func isBreakerFailure(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500 && se.Code != http.StatusServiceUnavailable
	}
	return !isBreakerOpen(err)
}

// retryableShardErr decides which errors are worth another attempt:
// network failures and 5xx (including sheds — they carry Retry-After
// hints) are; local breaker refusals and 4xx are not.
func retryableShardErr(err error) bool {
	if isBreakerOpen(err) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// callShard runs op against slot i's active member with retries,
// jittered backoff, Retry-After honoring, and breaker accounting. Every
// attempt re-checks the breaker and re-resolves the active address, so
// a mid-call promotion is picked up by the next attempt. Updates are
// safe to retry whole because shard applies are idempotent
// (graph.Apply: duplicate inserts and absent deletes are no-ops).
func (rt *Router) callShard(ctx context.Context, i int, op func(context.Context, *Client) error) error {
	return resilience.Do(ctx, resilience.RetryOptions{
		Attempts:   shardAttempts,
		Backoff:    rt.backoff,
		Retryable:  retryableShardErr,
		RetryAfter: RetryAfterHint,
		OnRetry:    func(int, time.Duration, error) { rt.retriesTotal.Inc() },
	}, func(ctx context.Context) error {
		br := rt.guard(i)
		if !br.Allow() {
			return errBreakerOpen{shard: i, wait: br.RemainingOpen()}
		}
		addr, _ := rt.table.Active(i)
		if addr == "" {
			return errBreakerOpen{shard: i}
		}
		err := op(ctx, rt.clientFor(addr))
		switch {
		case err == nil:
			br.Success()
		case isBreakerFailure(err):
			rt.breakerFailure(br)
		}
		return err
	})
}

// noteOutcome feeds the deadline-exceeded counter from a shard-call
// error.
func (rt *Router) noteOutcome(err error) {
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		rt.deadlineHits.Inc()
	}
}

// shedRetryAfter derives the Retry-After value for load shed on shard
// i's account: the breaker's remaining cool-down when it is open
// (rounded up to whole seconds), else the 1s floor.
func (rt *Router) shedRetryAfter(i int) string {
	if wait := rt.guard(i).RemainingOpen(); wait > 0 {
		return strconv.Itoa(int(math.Ceil(wait.Seconds())))
	}
	return "1"
}

// maxRetryAfter reduces per-shard hint durations to a Retry-After
// header value with a 1s floor.
func maxRetryAfter(hints []time.Duration) string {
	var max time.Duration
	for _, h := range hints {
		if h > max {
			max = h
		}
	}
	secs := int(math.Ceil(max.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// fetchView resolves one shard's view for a cross-shard query, in
// preference order: the primary (with retries, hedged to the replica
// when slow), then the replica's stale surface when the primary is
// breaker-open, unhealthy, or exhausted its retries. The returned
// status is "ok", "hedged", or "stale-replica"; on error the shard is
// simply missing from the query.
func (rt *Router) fetchView(ctx context.Context, i int, algo string) (ShardView, string, error) {
	br := rt.guard(i)
	addr, healthy := rt.table.Active(i)
	raddr := rt.table.Replica(i)
	if raddr == addr {
		raddr = ""
	}
	var lastErr error
	if healthy && addr != "" && br.Allow() {
		type res struct {
			sv      ShardView
			err     error
			replica bool
		}
		resc := make(chan res, 2)
		go func() {
			var sv ShardView
			err := rt.callShard(ctx, i, func(ctx context.Context, c *Client) error {
				var e error
				sv, e = c.View(ctx, algo)
				return e
			})
			resc <- res{sv, err, false}
		}()
		inflight := 1
		var hedgeC <-chan time.Time
		if raddr != "" {
			tm := time.NewTimer(hedgeAfter)
			defer tm.Stop()
			hedgeC = tm.C
		}
		hedged := false
		for inflight > 0 {
			select {
			case r := <-resc:
				inflight--
				if r.err == nil {
					if r.replica {
						return r.sv, "hedged", nil
					}
					return r.sv, "ok", nil
				}
				if !r.replica || lastErr == nil {
					lastErr = r.err
				}
			case <-hedgeC:
				hedgeC = nil
				hedged = true
				inflight++
				rt.hedgedReads.Inc()
				go func() {
					sv, err := rt.clientFor(raddr).View(ctx, algo)
					resc <- res{sv, err, true}
				}()
			case <-ctx.Done():
				return ShardView{}, "", ctx.Err()
			}
		}
		if hedged {
			// The replica was already consulted (and failed) as the hedge;
			// a second stale-read attempt below would just repeat it.
			return ShardView{}, "", lastErr
		}
	}
	// Breaker open, slot unhealthy, or primary exhausted: a stale answer
	// from the warm replica beats a missing shard. Post-promotion the
	// replica slot points at the dead ex-primary, so this read fails
	// fast and the shard is reported missing instead.
	if raddr != "" {
		sv, err := rt.clientFor(raddr).View(ctx, algo)
		if err == nil {
			rt.staleReads.Inc()
			return sv, "stale-replica", nil
		}
		if lastErr == nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = errBreakerOpen{shard: i, wait: br.RemainingOpen()}
	}
	return ShardView{}, "", lastErr
}

// retryScrape wraps cluster observability scrapes (metrics, traces,
// offenders, health probes) in a light retry of scrapeAttempts — scrapes
// are read-only and retry freely.
func (rt *Router) retryScrape(ctx context.Context, op func(context.Context) error) error {
	return resilience.Do(ctx, resilience.RetryOptions{
		Attempts: scrapeAttempts,
		Backoff:  rt.backoff,
		OnRetry:  func(int, time.Duration, error) { rt.retriesTotal.Inc() },
	}, op)
}
