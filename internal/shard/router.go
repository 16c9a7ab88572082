package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/resilience"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
)

// Router is the cluster front-end: one process that owns no graph state
// but knows the partitioner, splits every update batch into per-shard
// sub-batches, fans them out, and assembles cross-shard query answers
// by boundary-value exchange. Its consistency currency is the epoch
// vector: every write acknowledgment and every query response is
// stamped with one, and the router tracks the component-wise maximum of
// everything it has acknowledged (the *floor*) so reads can be labeled
// consistent or not — honestly inconsistent after a replica promotion
// that lost acked-but-unshipped tail updates, for example.
type Router struct {
	part     Partitioner
	table    *Table
	directed bool
	n        int
	client   *http.Client

	// floor is the component-wise max epoch vector over acknowledged
	// writes: the prefix a consistent read must cover.
	floorMu sync.Mutex
	floor   EpochVector

	updatesRouted *obs.Counter
	updatesShed   *obs.Counter
	updatesSplit  *obs.Counter
	partialFails  *obs.Counter
	exchangeRnds  *obs.Counter
	exchangeEvals *obs.Counter
	exchangePairs *obs.Counter
	queriesServed *obs.Counter
	reg           *obs.Registry

	// Resilience plane (see resilient.go): per-slot breakers keyed to
	// table generations, shared jittered backoff, and the counters the
	// chaos campaign asserts on.
	backoff         *resilience.Backoff
	guardMu         sync.Mutex
	guards          []*slotGuard
	retriesTotal    *obs.Counter
	breakerOpens    *obs.Counter
	deadlineHits    *obs.Counter
	degradedQueries *obs.Counter
	staleReads      *obs.Counter
	hedgedReads     *obs.Counter

	// rec is the router's own flight recorder ("router" process in the
	// merged cluster timeline); track is its request track.
	rec   *trace.Recorder
	track int32
	// events is the topology event ring served at /cluster/events,
	// usually shared with the Supervisor that writes it.
	events *obs.Ring[TopologyEvent]
}

// RouterOptions configure a Router.
type RouterOptions struct {
	// Part is the vertex-ownership scheme; must match the shards'.
	Part Partitioner
	// Table maps shard ids to live addresses (shared with a Supervisor
	// when one manages the processes).
	Table *Table
	// Directed must match the shards' graph mode — it decides which
	// sub-batches an undirected cut edge lands in.
	Directed bool
	// NumNodes is the graph's node count, for validating batches before
	// any shard sees them.
	NumNodes int
	// Client overrides the HTTP client used for shard requests.
	Client *http.Client
	// Events is the topology event ring surfaced at /cluster/events;
	// share it with the Supervisor so its actions are visible. Nil means
	// a private (empty unless the router writes) ring.
	Events *obs.Ring[TopologyEvent]
}

// NewRouter validates the options and builds a router.
func NewRouter(opt RouterOptions) (*Router, error) {
	if opt.Part == nil {
		return nil, fmt.Errorf("shard: router needs a partitioner")
	}
	if opt.Table == nil {
		return nil, fmt.Errorf("shard: router needs a routing table")
	}
	if opt.Table.Shards() != opt.Part.Shards() {
		return nil, fmt.Errorf("shard: table has %d slots, partitioner %d shards",
			opt.Table.Shards(), opt.Part.Shards())
	}
	if opt.NumNodes <= 0 {
		return nil, fmt.Errorf("shard: router needs the node count, got %d", opt.NumNodes)
	}
	reg := obs.NewRegistry()
	rt := &Router{
		part:     opt.Part,
		table:    opt.Table,
		directed: opt.Directed,
		n:        opt.NumNodes,
		client:   opt.Client,
		floor:    make(EpochVector, opt.Part.Shards()),
		reg:      reg,
	}
	rt.rec = trace.NewRecorder(4096)
	rt.rec.SetProcess("router")
	rt.track = rt.rec.Track("router")
	rt.events = opt.Events
	if rt.events == nil {
		rt.events = obs.NewRing[TopologyEvent](256)
	}
	rt.initResilience(reg)
	rt.updatesRouted = reg.Counter("incrouter_updates_routed_total", "Unit updates fanned out to shards.")
	rt.updatesShed = reg.Counter("incrouter_updates_shed_total", "Update requests refused with 503.")
	rt.updatesSplit = reg.Counter("incrouter_batches_split_total", "Update batches split and routed.")
	rt.partialFails = reg.Counter("incrouter_partial_failures_total", "Split batches where only some shards applied.")
	rt.exchangeRnds = reg.Counter("incrouter_exchange_rounds_total", "Boundary-value exchange rounds run.")
	rt.exchangeEvals = reg.Counter("incrouter_exchange_evals_total", "Shard evaluations requested by boundary exchanges.")
	rt.exchangePairs = reg.Counter("incrouter_exchange_pairs_total", "Vertex-value pairs moved by boundary exchanges, seeds sent plus improvements received.")
	rt.queriesServed = reg.Counter("incrouter_queries_total", "Cross-shard queries assembled.")
	return rt, nil
}

// clientFor returns a shard client for slot i's active member.
func (rt *Router) clientFor(addr string) *Client { return &Client{Base: addr, HTTP: rt.client} }

// EpochHeader is the response header carrying the epoch-vector token on
// stamped router responses; the same token is accepted back on reads in
// MinEpochHeader.
const EpochHeader = "X-Incgraph-Epochs"

// MinEpochHeader is the request header naming the epoch vector a read
// must cover; the router answers 412 when it cannot.
const MinEpochHeader = "X-Incgraph-Min-Epochs"

// Floor returns the router's acknowledged epoch floor.
func (rt *Router) Floor() EpochVector {
	rt.floorMu.Lock()
	defer rt.floorMu.Unlock()
	return rt.floor.Clone()
}

// raiseFloor merges an acknowledged vector into the floor.
func (rt *Router) raiseFloor(ev EpochVector) {
	rt.floorMu.Lock()
	rt.floor = rt.floor.Max(ev)
	rt.floorMu.Unlock()
}

// PerShard is one shard's slice of a routed update, reported in the
// response body so a partial apply is visible per shard, not averaged
// away.
type PerShard struct {
	// Shard is the slot the sub-batch belonged to.
	Shard int `json:"shard"`
	// Updates is the sub-batch size in unit updates.
	Updates int `json:"updates"`
	// Status is "applied", "accepted", "shed", or "error".
	Status string `json:"status"`
	// Error carries the failure detail when Status is shed/error.
	Error string `json:"error,omitempty"`
	// Epochs are the shard's per-algo view epochs after the sub-batch.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// RouterUpdateResult is the JSON response of the router's POST /update.
type RouterUpdateResult struct {
	// Accepted is the unit-update count parsed from the body.
	Accepted int `json:"accepted"`
	// Routed is the number of shards that received a sub-batch.
	Routed int `json:"routed"`
	// Applied is true only when every owning shard confirmed its
	// sub-batch WAL-logged and (with wait=1) applied. A split batch is
	// never acked as applied on partial success.
	Applied bool `json:"applied"`
	// PerShard details each sub-batch's fate.
	PerShard []PerShard `json:"per_shard"`
	// Epochs is the epoch vector after the request (also in the
	// X-Incgraph-Epochs header as EpochToken).
	Epochs EpochVector `json:"epochs"`
	// EpochToken is the vector's opaque header token.
	EpochToken string `json:"epoch_token"`
}

// QueryResult is the JSON response of the router's GET /query/{algo}:
// the QueryMeta fields followed by "data".
type QueryResult struct {
	QueryMeta
	// Data is the assembled global answer.
	Data QueryData `json:"data"`
}

// QueryMeta is everything in a QueryResult but the answer vector.
type QueryMeta struct {
	// Algo is the query class.
	Algo string `json:"algo"`
	// Epochs is the per-shard epoch vector the answer reflects.
	Epochs EpochVector `json:"epochs"`
	// EpochToken is the vector's opaque header token.
	EpochToken string `json:"epoch_token"`
	// Consistent reports whether the answer is the exact result at
	// Epochs and Epochs covers the router's acknowledged floor. It is
	// false when some acknowledged write is not reflected (e.g. lost in
	// a promotion), and when a shard's epoch moved during the boundary
	// exchange (a concurrent writer): Epochs then holds the newest epoch
	// seen per shard and the answer mixes stream positions. The client
	// should treat either as a stale prefix.
	Consistent bool `json:"consistent"`
	// Degraded is set when the answer is a partial: a contributing
	// shard's view was degraded or stale, a shard was missing entirely,
	// or the boundary exchange lost a shard mid-flight. The epoch
	// vector (a missing shard's entry stays 0) exposes exactly how
	// stale the partial is.
	Degraded bool `json:"degraded,omitempty"`
	// Shards details where each shard's contribution came from when the
	// answer is degraded.
	Shards []QueryShard `json:"shards,omitempty"`
	// ExchangeRounds counts boundary-exchange sweeps over the shards in
	// which at least one shard had a frontier to evaluate (CC: always 1,
	// the label union).
	ExchangeRounds int `json:"exchange_rounds"`
	// ExchangeEvals counts shard evaluations (eval requests) made, and
	// ExchangePairsOut/In the (vertex, value) pairs sent as seeds and
	// received as improvements — what crossed a cut for this query.
	ExchangeEvals    int `json:"exchange_evals"`
	ExchangePairsOut int `json:"exchange_pairs_out"`
	ExchangePairsIn  int `json:"exchange_pairs_in"`
}

// QueryData is the assembled answer: SSSP fills Src and Dist, CC fills
// Labels; on the wire each algo carries only its own keys.
type QueryData struct {
	// Src is the SSSP source and Dist[v] the global distance to v.
	Src  graph.NodeID `json:"src"`
	Dist []int64      `json:"dist,omitempty"`
	// Labels[v] is the minimum vertex id of v's global component.
	Labels []int64 `json:"labels,omitempty"`
}

// QueryShard reports where one shard's contribution to a cross-shard
// query came from.
type QueryShard struct {
	// Shard is the slot.
	Shard int `json:"shard"`
	// Status is "ok" (primary), "hedged" (replica won a latency race),
	// "stale-replica" (primary unavailable, replica's stale surface
	// answered), "missing" (no member answered; the shard's entries
	// are absent from the result and its epoch reads 0), or
	// "exchange-lost" (its view is in the result, but an eval failed and
	// the exchange went on without the shard's relaxations).
	Status string `json:"status"`
	// Epoch is the stream position this shard's contribution reflects.
	Epoch uint64 `json:"epoch"`
	// Error carries the failure detail when Status is "missing" or
	// "exchange-lost", and the eval failure of a shard whose view a
	// replica supplied.
	Error string `json:"error,omitempty"`
}

// routedBatch pairs a shard id with its non-empty sub-batch.
type routedBatch struct {
	shard int
	b     graph.Batch
}

// Handler returns the router's HTTP API:
//
//	POST /update[?wait=1]        split, fan out, epoch-vector-stamped ack
//	GET  /query/{algo}           cross-shard answer by boundary exchange
//	GET  /epochs                 current floor and live per-shard epochs
//	GET  /shards                 routing table snapshot
//	GET  /healthz                router liveness
//	GET  /metrics                router metrics (Prometheus text format)
//	GET  /metrics.json           router registry snapshot (federation source)
//	GET  /debug/trace            router-only trace_event dump
//	GET  /debug/cluster/trace    merged cluster timeline (?trace= filters)
//	GET  /cluster/metrics        federated member metrics + cluster rollups
//	GET  /cluster/health         topology liveness/generation/epoch summary
//	GET  /cluster/events         recent supervisor topology events (?n= caps)
//	GET  /cluster/offenders      merged worst-boundedness applies (?algo=, ?n=)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"shards": rt.table.Snapshot()})
	})
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.Handle("GET /metrics.json", rt.reg.JSONHandler())
	mux.Handle("GET /debug/trace", rt.rec.Handler())
	mux.HandleFunc("GET /debug/cluster/trace", rt.handleClusterTrace)
	mux.HandleFunc("GET /cluster/metrics", rt.handleClusterMetrics)
	mux.HandleFunc("GET /cluster/health", rt.handleClusterHealth)
	mux.HandleFunc("GET /cluster/events", rt.handleClusterEvents)
	mux.HandleFunc("GET /cluster/offenders", rt.handleClusterOffenders)
	mux.HandleFunc("GET /epochs", rt.handleEpochs)
	mux.HandleFunc("POST /update", rt.handleUpdate)
	mux.HandleFunc("GET /query/{algo}", rt.handleQuery)
	// Clients announce their remaining patience in X-Incgraph-Deadline;
	// the middleware turns it into a context deadline every downstream
	// shard call (and retry sleep) spends from.
	return resilience.Middleware(mux)
}

func (rt *Router) handleEpochs(w http.ResponseWriter, r *http.Request) {
	live := make(EpochVector, rt.part.Shards())
	for i := range live {
		addr, _ := rt.table.Active(i)
		info, err := rt.clientFor(addr).Info(r.Context())
		if err != nil {
			continue // absent entry stays 0: visibly behind the floor
		}
		live[i] = minAlgoEpoch(info.Epochs)
	}
	floor := rt.Floor()
	writeJSON(w, http.StatusOK, map[string]any{
		"floor": floor, "floor_token": floor.String(),
		"live": live, "live_token": live.String(),
		"consistent": live.Covers(floor),
	})
}

// requestTrace resolves the request's W3C trace ID (client-supplied
// traceparent or freshly minted), stamps it on the response, and returns
// a context carrying it so shard.Client fan-out requests propagate it.
func (rt *Router) requestTrace(w http.ResponseWriter, r *http.Request) (context.Context, trace.TraceID) {
	tid, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tid = trace.NewTraceID()
	}
	w.Header().Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
	return trace.ContextWithID(r.Context(), tid), tid
}

func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	ctx, tid := rt.requestTrace(w, r)
	ctx, cancel := resilience.EnsureBudget(ctx, defaultBudget)
	defer cancel()
	root := rt.rec.Begin("update", "router", rt.track)
	root.SetTrace(tid)
	defer root.End()
	b, err := graph.ReadBatch(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := b.Validate(rt.n); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	split := rt.rec.Begin("split", "router", rt.track)
	split.SetTrace(tid)
	parts := SplitBatch(rt.part, rt.directed, b)
	var routed []routedBatch
	for i, sb := range parts {
		if len(sb) > 0 {
			routed = append(routed, routedBatch{shard: i, b: sb})
		}
	}
	split.Arg("updates", int64(len(b)))
	split.Arg("shards", int64(len(routed)))
	split.End()
	root.Arg("updates", int64(len(b)))
	root.Arg("shards", int64(len(routed)))
	// Health gate before any shard sees a byte: refusing the whole
	// batch up front beats discovering a dead owner after siblings have
	// already logged their slices. The breaker gate extends the same
	// logic to owners that are nominally healthy but failing fast, and
	// the shed's Retry-After is derived from the breaker's remaining
	// cool-down rather than a hardcoded guess.
	for _, rb := range routed {
		if addr, healthy := rt.table.Active(rb.shard); !healthy || addr == "" {
			rt.updatesShed.Inc()
			w.Header().Set("Retry-After", rt.shedRetryAfter(rb.shard))
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d is not healthy; batch not routed", rb.shard))
			return
		}
		if !rt.guard(rb.shard).Allow() {
			rt.updatesShed.Inc()
			w.Header().Set("Retry-After", rt.shedRetryAfter(rb.shard))
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d circuit breaker is open; batch not routed", rb.shard))
			return
		}
	}
	wait := r.URL.Query().Get("wait") != ""
	res := RouterUpdateResult{
		Accepted: len(b),
		Routed:   len(routed),
		PerShard: make([]PerShard, len(routed)),
	}
	fan := rt.rec.Begin("fanout", "router", rt.track)
	fan.SetTrace(tid)
	// hints collects per-shard Retry-After guidance so a shed response
	// relays the most pessimistic shard's ask instead of a constant.
	hints := make([]time.Duration, len(routed))
	var wg sync.WaitGroup
	for idx, rb := range routed {
		wg.Add(1)
		go func(idx int, rb routedBatch) {
			defer wg.Done()
			ps := PerShard{Shard: rb.shard, Updates: len(rb.b)}
			// Whole-sub-batch retries are safe: shard applies are
			// idempotent (counted no-ops for duplicate inserts and absent
			// deletes), so a retry after an ambiguous failure cannot
			// double-apply.
			var out UpdateOutcome
			err := rt.callShard(ctx, rb.shard, func(ctx context.Context, c *Client) error {
				var e error
				out, e = c.Update(ctx, rb.b, wait)
				return e
			})
			rt.noteOutcome(err)
			switch {
			case err == nil:
				ps.Status, ps.Epochs = "accepted", out.Epochs
				if out.Applied {
					ps.Status = "applied"
				}
			case IsShed(err) || isBreakerOpen(err):
				ps.Status, ps.Error = "shed", err.Error()
				if h, ok := RetryAfterHint(err); ok {
					hints[idx] = h
				} else if e := (errBreakerOpen{}); errors.As(err, &e) {
					hints[idx] = e.wait
				}
			default:
				ps.Status, ps.Error = "error", err.Error()
			}
			res.PerShard[idx] = ps
		}(idx, rb)
	}
	wg.Wait()
	fan.End()

	// Assemble the post-request epoch vector: shards that carried a
	// sub-batch report their new epochs; untouched shards keep the
	// floor's entry (their stream did not advance).
	assemble := rt.rec.Begin("epoch_assemble", "router", rt.track)
	assemble.SetTrace(tid)
	vector := rt.Floor()
	allOK, anyOK, anyShed := true, false, false
	for _, ps := range res.PerShard {
		switch ps.Status {
		case "applied", "accepted":
			anyOK = true
			if e := minAlgoEpoch(ps.Epochs); e > vector[ps.Shard] {
				vector[ps.Shard] = e
			}
		case "shed":
			anyShed, allOK = true, false
		default:
			allOK = false
		}
	}
	res.Epochs = vector
	res.EpochToken = vector.String()
	assemble.End()
	// A split batch is applied only if *every* owning shard logged its
	// slice; partial success is reported per shard, never acked whole.
	res.Applied = allOK && wait && len(routed) > 0
	w.Header().Set(EpochHeader, res.EpochToken)
	rt.updatesSplit.Inc()
	if allOK {
		rt.updatesRouted.Add(float64(len(b)))
		rt.raiseFloor(vector)
		writeJSON(w, http.StatusOK, res)
		return
	}
	if anyOK {
		rt.partialFails.Inc()
		// The applied slices are acknowledged state — reads must cover
		// them even though the batch as a whole failed.
		rt.raiseFloor(vector)
	}
	code := http.StatusBadGateway
	if anyShed {
		rt.updatesShed.Inc()
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", maxRetryAfter(hints))
	writeJSON(w, code, res)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	algo := r.PathValue("algo")
	if algo != "sssp" && algo != "cc" {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown algo %q", algo))
		return
	}
	ctx, tid := rt.requestTrace(w, r)
	ctx, cancel := resilience.EnsureBudget(ctx, defaultBudget)
	defer cancel()
	span := rt.rec.Begin("query", "router", rt.track)
	span.SetTrace(tid)
	span.Arg("shards", int64(rt.part.Shards()))
	defer span.End()
	var minEV EpochVector
	if tok := r.Header.Get(MinEpochHeader); tok != "" {
		ev, err := ParseEpochVector(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		minEV = ev
	}
	views, vector, shardStats, degraded, src, err := rt.gatherViews(ctx, algo)
	if err != nil {
		// Only a query no shard can contribute to fails whole; anything
		// less becomes a degraded partial below.
		w.Header().Set("Retry-After", maxRetryAfter(nil))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if minEV != nil && !vector.Covers(minEV) {
		w.Header().Set(EpochHeader, vector.String())
		writeError(w, http.StatusPreconditionFailed,
			fmt.Errorf("shard epochs %v do not cover required %v", vector, minEV))
		return
	}
	var res QueryResult
	res.Algo, res.Degraded = algo, degraded
	switch algo {
	case "sssp":
		// An eval failure mid-exchange does not fail the query: the
		// exchange goes on without that shard and the answer — still a
		// sound partial — is stamped degraded.
		dist, st := SSSPExchange(rt.part, rt.directed, rt.n, views, vector, func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
			var resp EvalResponse
			err := rt.callShard(ctx, i, func(ctx context.Context, c *Client) error {
				var e error
				resp, e = c.Eval(ctx, "sssp", seeds)
				return e
			})
			if err != nil {
				rt.noteOutcome(err)
				res.Degraded = true
				// A view that came from a replica keeps saying so: its
				// primary failing evals is the same outage.
				if shardStats[i].Status == "ok" {
					shardStats[i].Status = "exchange-lost"
				}
				shardStats[i].Error = err.Error()
			}
			return resp.Improved, resp.Epoch, err
		})
		res.ExchangeRounds, res.ExchangeEvals = st.Rounds, st.Evals
		res.ExchangePairsOut, res.ExchangePairsIn = st.PairsOut, st.PairsIn
		res.Consistent = st.Converged
		res.Data = QueryData{Src: src, Dist: dist}
	case "cc":
		// CC's exchange needs no shard round-trips: the union of the
		// published label relations is the global fixpoint.
		res.ExchangeRounds, res.Consistent = 1, true
		res.Data = QueryData{Labels: CCExchange(rt.n, views)}
	}
	// vector is final only now: the exchange records a moved epoch in it.
	res.Epochs, res.EpochToken = vector, vector.String()
	res.Consistent = res.Consistent && vector.Covers(rt.Floor())
	if res.Degraded {
		res.Shards = shardStats
		rt.degradedQueries.Inc()
	}
	span.Arg("exchange_evals", int64(res.ExchangeEvals))
	span.Arg("exchange_pairs_out", int64(res.ExchangePairsOut))
	span.Arg("exchange_pairs_in", int64(res.ExchangePairsIn))
	rt.exchangeRnds.Add(float64(res.ExchangeRounds))
	rt.exchangeEvals.Add(float64(res.ExchangeEvals))
	rt.exchangePairs.Add(float64(res.ExchangePairsOut + res.ExchangePairsIn))
	rt.queriesServed.Inc()
	w.Header().Set(EpochHeader, res.EpochToken)
	writeQuery(w, &res)
}

// gatherViews fetches every shard's view for algo concurrently through
// the resilient path (retries, hedges, replica stale fallback; see
// fetchView), returning the per-shard value vectors, the epoch vector
// they answer for, per-shard provenance, whether the result is
// degraded, and (for sssp) the source. A shard no member can answer for
// is *missing*: its views entry stays nil and its vector entry stays 0,
// visibly behind the floor, so consistency checks fail honestly. Only
// when every shard is missing does gatherViews return an error — the
// whole-query 5xx of last resort.
func (rt *Router) gatherViews(ctx context.Context, algo string) (views [][]int64, vector EpochVector, shardStats []QueryShard, degraded bool, src graph.NodeID, err error) {
	shards := rt.part.Shards()
	views = make([][]int64, shards)
	vector = make(EpochVector, shards)
	shardStats = make([]QueryShard, shards)
	srcs := make([]graph.NodeID, shards)
	degs := make([]bool, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qs := QueryShard{Shard: i}
			sv, status, ferr := rt.fetchView(ctx, i, algo)
			switch {
			case ferr != nil:
				rt.noteOutcome(ferr)
				qs.Status, qs.Error = "missing", ferr.Error()
			case len(sv.Values) != rt.n:
				qs.Status = "missing"
				qs.Error = fmt.Sprintf("view has %d nodes, want %d", len(sv.Values), rt.n)
			default:
				qs.Status, qs.Epoch = status, sv.Epoch
				views[i], vector[i], srcs[i] = sv.Values, sv.Epoch, sv.Src
				// A shard answered, but not by its primary's live view:
				// hedged/stale reads and degraded shard views are all
				// reasons to stamp the assembled answer degraded.
				degs[i] = sv.Degraded || status != "ok"
			}
			shardStats[i] = qs
		}(i)
	}
	wg.Wait()
	present := 0
	var lastErr string
	for i := range shardStats {
		if views[i] == nil {
			degraded = true
			lastErr = shardStats[i].Error
			continue
		}
		present++
		degraded = degraded || degs[i]
		src = srcs[i] // all shards share the source; any entry works
	}
	if present == 0 {
		return nil, nil, nil, false, 0, fmt.Errorf("no shard could answer %s query (%s)", algo, lastErr)
	}
	return views, vector, shardStats, degraded, src, nil
}

// minAlgoEpoch reduces a per-algo epoch map to the conservative shard
// epoch: the minimum across hosted algos (they consume one stream, so
// the minimum is the prefix *all* views reflect).
func minAlgoEpoch(epochs map[string]uint64) uint64 {
	first := true
	var min uint64
	for _, e := range epochs {
		if first || e < min {
			min, first = e, false
		}
	}
	return min
}

// writeJSON writes v as indented JSON with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// queryBufs pools the encode buffers of writeQuery; a buffer settles at
// the size of one answer.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeQuery encodes res compactly, once: the metadata through
// encoding/json (small, and it owns string escaping), the O(|V|) answer
// vector with serve.AppendInts — the daemon's page encoder — into a
// pooled buffer. The bytes equal
// json.Marshal(res) except that an algo's data carries only its own
// keys (no "src" on cc).
func writeQuery(w http.ResponseWriter, res *QueryResult) {
	bp := queryBufs.Get().(*[]byte)
	defer queryBufs.Put(bp)
	meta, _ := json.Marshal(&res.QueryMeta) // plain fields: cannot fail
	b := append((*bp)[:0], meta[:len(meta)-1]...)
	vec := res.Data.Labels
	if res.Algo == "sssp" {
		b = append(b, `,"data":{"src":`...)
		b = strconv.AppendInt(b, int64(res.Data.Src), 10)
		b = append(b, `,"dist":[`...)
		vec = res.Data.Dist
	} else {
		b = append(b, `,"data":{"labels":[`...)
	}
	b = append(serve.AppendInts(b, vec), "]}}\n"...)
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// writeError writes the standard JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
