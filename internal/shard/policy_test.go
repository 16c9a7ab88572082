package shard

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/resilience"
)

// TestShippedResiliencePolicy holds the router's resilience plane at the
// numbers a deployment runs — nothing here is tuned — each against a
// shard that misbehaves in one way: how often a call is tried, when a
// slot's breaker opens and closes, when a slow view read is hedged, and
// what budget a request without a deadline carries to the shard.
func TestShippedResiliencePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"attempts", testShippedAttempts},
		{"breaker", testShippedBreaker},
		{"hedge", testShippedHedge},
		{"budget", testShippedBudget},
	} {
		t.Run(tc.name, tc.run)
	}
}

// policyRouter is a one-shard router whose slot is addr.
func policyRouter(t *testing.T, addr string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterOptions{Part: NewHashPartitioner(1), Table: NewTable([]string{addr}), NumNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// healthz is a shard call that fails on anything but a 2xx.
func healthz(ctx context.Context, c *Client) error { return c.Healthz(ctx) }

// testShippedAttempts: a shard call makes 3 attempts, a cluster scrape 2.
func testShippedAttempts(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer srv.Close()
	rt := policyRouter(t, srv.URL)
	ctx := context.Background()
	if err := rt.callShard(ctx, 0, healthz); err == nil {
		t.Fatal("a call to a failing shard succeeded")
	}
	if n := hits.Swap(0); n != 3 {
		t.Errorf("a shard call made %d attempts, want 3", n)
	}
	if err := rt.retryScrape(ctx, func(ctx context.Context) error { return healthz(ctx, rt.clientFor(srv.URL)) }); err == nil {
		t.Fatal("a scrape of a failing shard succeeded")
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("a cluster scrape made %d attempts, want 2", n)
	}
}

// testShippedBreaker: a slot's breaker opens on the 5th consecutive
// failure, refuses for 1 s, and closes after one successful probe.
func testShippedBreaker(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	rt := policyRouter(t, srv.URL)
	ctx := context.Background()
	br := rt.guard(0)
	// The first call fails its 3 attempts and leaves the breaker closed;
	// the second call's 2nd attempt is the 5th failure, which opens it, so
	// its 3rd attempt is refused locally.
	var start time.Time // of the call that trips the breaker
	for call, want := range []resilience.State{resilience.Closed, resilience.Open} {
		start = time.Now()
		if err := rt.callShard(ctx, 0, healthz); err == nil {
			t.Fatal("a call to a failing shard succeeded")
		}
		if st := br.State(); st != want {
			t.Fatalf("breaker %v after call %d, want %v", st, call+1, want)
		}
	}
	if n := hits.Load(); n != 5 {
		t.Fatalf("the breaker opened after %d failures, want 5", n)
	}
	// It tripped after start, so it stays open for 1s less at most the
	// time since.
	wait := br.RemainingOpen()
	if since := time.Since(start); wait > time.Second || wait < time.Second-since {
		t.Fatalf("breaker open for %v more, %v after the tripping call began; want 1s less at most that", wait, since)
	}
	hits.Store(0)
	if err := rt.callShard(ctx, 0, healthz); !isBreakerOpen(err) {
		t.Fatalf("call through an open breaker: %v, want a local refusal", err)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("an open breaker let %d requests through", n)
	}
	// The cool-down is the shipped one: wait it out, then one probe to a
	// recovered shard closes the breaker.
	healthy.Store(true)
	time.Sleep(br.RemainingOpen())
	if err := rt.callShard(ctx, 0, healthz); err != nil {
		t.Fatalf("probe after the cool-down: %v", err)
	}
	if n, st := hits.Load(), br.State(); n != 1 || st != resilience.Closed {
		t.Fatalf("after %d probe(s) the breaker is %v, want closed after 1", n, st)
	}
}

// testShippedHedge: a view read from a primary slower than 100 ms is
// hedged to the slot's replica, and not before.
func testShippedHedge(t *testing.T) {
	leakCheck(t)
	g := gen.PowerLaw(rand.New(rand.NewSource(5)), 60, 4, true)
	p := NewHashPartitioner(1)
	slow := startWrappedShard(t, g, p, 0, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/query/") {
				<-r.Context().Done() // slower than any hedge: answers only a cancel
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	replica := startShardDaemon(t, g, p, 0, 0)
	table := NewTable([]string{slow.URL})
	table.SetReplica(0, replica.URL)
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, Directed: true, NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	sv, status, err := rt.fetchView(ctx, 0, "sssp")
	took := time.Since(start)
	if err != nil || status != "hedged" || len(sv.Values) != g.NumNodes() {
		t.Fatalf("view read from a stalled primary: status %q, %d values, err %v; want hedged", status, len(sv.Values), err)
	}
	if took < 100*time.Millisecond || took > 2*time.Second {
		t.Fatalf("hedged read took %v, want just over 100ms", took)
	}
}

// testShippedBudget: a request that arrives with no deadline reaches the
// shard with about 30,000 ms in X-Incgraph-Deadline.
func testShippedBudget(t *testing.T) {
	budgets := make(chan string, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case budgets <- r.Header.Get(resilience.DeadlineHeader):
		default:
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer srv.Close()
	rt := policyRouter(t, srv.URL)
	rt.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query/sssp", nil))
	got := <-budgets
	ms, err := strconv.Atoi(got)
	if err != nil || ms > 30000 || ms < 29000 {
		t.Fatalf("%s = %q, want about 30000", resilience.DeadlineHeader, got)
	}
}
