package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
)

// startShardDaemon builds one in-process shard daemon: a serve.Service
// hosting sssp+cc over the shard's fragment, with the shard API mounted,
// behind an httptest server.
func startShardDaemon(t *testing.T, g *graph.Graph, p Partitioner, id int, src graph.NodeID) *httptest.Server {
	t.Helper()
	return startWrappedShard(t, g, p, id, src, func(h http.Handler) http.Handler { return h })
}

// startWrappedShard is startShardDaemon with wrap around the daemon's
// handler, for tests that interfere with the wire.
func startWrappedShard(t *testing.T, g *graph.Graph, p Partitioner, id int, src graph.NodeID, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	frag := FilterGraph(g, p, id)
	svc := serve.NewService()
	if _, err := svc.Host(serve.SSSP(sssp.NewInc(frag, src)), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(serve.CC(cc.NewInc(frag.Clone())), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	MountShardAPI(svc, p, id, g.NumNodes(), g.Directed(), nil)
	srv := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv
}

func startCluster(t *testing.T, g *graph.Graph, shards int, src graph.NodeID) (*Router, *Table) {
	t.Helper()
	p := NewHashPartitioner(shards)
	addrs := make([]string, shards)
	for id := 0; id < shards; id++ {
		addrs[id] = startShardDaemon(t, g, p, id, src).URL
	}
	table := NewTable(addrs)
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, Directed: g.Directed(), NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return rt, table
}

func postBatch(t *testing.T, h http.Handler, b graph.Batch, wait bool) (*httptest.ResponseRecorder, RouterUpdateResult) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	url := "/update"
	if wait {
		url += "?wait=1"
	}
	req := httptest.NewRequest(http.MethodPost, url, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var res RouterUpdateResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("update response %d not JSON: %v\n%s", w.Code, err, w.Body.String())
	}
	return w, res
}

func queryRouter(t *testing.T, h http.Handler, algo, minEpochs string) (*httptest.ResponseRecorder, QueryResult) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/query/"+algo, nil)
	if minEpochs != "" {
		req.Header.Set(MinEpochHeader, minEpochs)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var res QueryResult
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("query response not JSON: %v", err)
		}
	}
	return w, res
}

// TestClientUpdateSendsTextBatch: what a shard's handler receives from
// Client.Update is the batch in the text format POST /update reads,
// labelled text/plain, and the shard accepts and applies all of it.
func TestClientUpdateSendsTextBatch(t *testing.T) {
	g := graph.New(8, false)
	g.InsertEdge(0, 1, 2)
	g.InsertEdge(1, 2, 3)
	b := graph.Batch{
		{Kind: graph.InsertEdge, From: 3, To: 4, W: 5},
		{Kind: graph.DeleteEdge, From: 1, To: 2},
		{Kind: graph.InsertEdge, From: 0, To: 7, W: 1},
	}
	var contentType string
	var body []byte
	srv := startWrappedShard(t, g, NewHashPartitioner(1), 0, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/update" {
				contentType = r.Header.Get("Content-Type")
				body, _ = io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	})
	out, err := (&Client{Base: srv.URL}).Update(context.Background(), b, true)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type %q, want text/plain", contentType)
	}
	var want bytes.Buffer
	graph.WriteBatch(&want, b)
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("body %q, want graph.WriteBatch's %q", body, want.Bytes())
	}
	if got, err := graph.ReadBatch(bytes.NewReader(body)); err != nil || !reflect.DeepEqual(got, b) {
		t.Errorf("ReadBatch of the body: %v, %v; want %v", got, err, b)
	}
	if out.Accepted != len(b) || !out.Applied {
		t.Errorf("outcome %+v, want %d accepted and applied", out, len(b))
	}
}

// TestRouterDifferential is the end-to-end half of the sharded ≡
// single-process guarantee, over real HTTP: random update batches routed
// through the splitter and fan-out, then cross-shard SSSP and CC reads
// compared against a full-graph recompute. Run under -race this also
// exercises the router's concurrent fan-out and view gathering.
func TestRouterDifferential(t *testing.T) {
	leakCheck(t)
	for _, directed := range []bool{true, false} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("directed=%v/shards=%d", directed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*100 + 5))
				oracle := gen.PowerLaw(rng, 200, 5, directed)
				src := graph.NodeID(rng.Intn(oracle.NumNodes()))
				rt, _ := startCluster(t, oracle, shards, src)
				h := rt.Handler()

				checkAnswers := func(round int) {
					w, res := queryRouter(t, h, "sssp", "")
					if w.Code != http.StatusOK {
						t.Fatalf("round %d: sssp query: %d %s", round, w.Code, w.Body.String())
					}
					if !res.Consistent {
						t.Fatalf("round %d: sssp answer not consistent: %v vs floor %v", round, res.Epochs, rt.Floor())
					}
					// Decode data straight from the body: round-tripping
					// through res.Data (any) would truncate Infinity to
					// float64 precision.
					var wire struct {
						Data struct {
							Src  graph.NodeID `json:"src"`
							Dist []int64      `json:"dist"`
						} `json:"data"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &wire); err != nil {
						t.Fatal(err)
					}
					data := wire.Data
					if data.Src != src {
						t.Fatalf("round %d: query source %d, want %d", round, data.Src, src)
					}
					want := sssp.Dijkstra(oracle, src)
					for v := range want {
						if data.Dist[v] != want[v] {
							t.Fatalf("round %d: dist[%d] = %d, want %d", round, v, data.Dist[v], want[v])
						}
					}

					w, res = queryRouter(t, h, "cc", "")
					if w.Code != http.StatusOK {
						t.Fatalf("round %d: cc query: %d %s", round, w.Code, w.Body.String())
					}
					var ccWire struct {
						Data struct {
							Labels []int64 `json:"labels"`
						} `json:"data"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &ccWire); err != nil {
						t.Fatal(err)
					}
					ccData := ccWire.Data
					wantLabels := cc.CCfp(oracle)
					for v := range wantLabels {
						if ccData.Labels[v] != wantLabels[v] {
							t.Fatalf("round %d: label[%d] = %d, want %d", round, v, ccData.Labels[v], wantLabels[v])
						}
					}
				}

				checkAnswers(0)
				for round := 1; round <= 4; round++ {
					b := gen.RandomUpdates(rng, oracle, 50, 0.5)
					w, res := postBatch(t, h, b, true)
					if w.Code != http.StatusOK {
						t.Fatalf("round %d: update: %d %s", round, w.Code, w.Body.String())
					}
					if !res.Applied {
						t.Fatalf("round %d: batch not acked applied: %+v", round, res)
					}
					if w.Header().Get(EpochHeader) == "" {
						t.Fatalf("round %d: missing %s header", round, EpochHeader)
					}
					if _, err := ParseEpochVector(res.EpochToken); err != nil {
						t.Fatalf("round %d: epoch token: %v", round, err)
					}
					oracle.Apply(b)
					checkAnswers(round)
				}
			})
		}
	}
}

// TestRouterShedsOnUnhealthyShard: an unhealthy owning shard must shed
// the whole batch with 503 + Retry-After before any shard sees a byte,
// while queries degrade to a per-shard partial answer (the unhealthy
// shard reported missing, its epoch entry 0) instead of failing whole.
func TestRouterShedsOnUnhealthyShard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.PowerLaw(rng, 120, 5, true)
	rt, table := startCluster(t, g, 2, 0)
	h := rt.Handler()

	table.SetHealth(1, false)
	b := gen.RandomUpdates(rng, g, 30, 0.5)
	w, res := postBatch(t, h, b, true)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("update to degraded cluster: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if res.Applied {
		t.Fatal("shed batch acked as applied")
	}
	qw, qres := queryRouter(t, h, "sssp", "")
	if qw.Code != http.StatusOK {
		t.Fatalf("query with a dead shard: %d, want 200 degraded partial", qw.Code)
	}
	if !qres.Degraded {
		t.Fatal("partial query not stamped degraded")
	}
	if len(qres.Shards) != 2 || qres.Shards[1].Status != "missing" {
		t.Fatalf("per-shard provenance = %+v, want shard 1 missing", qres.Shards)
	}
	if qres.Epochs[1] != 0 {
		t.Fatalf("missing shard's epoch entry = %d, want 0", qres.Epochs[1])
	}

	table.SetHealth(1, true)
	if w, res = postBatch(t, h, b, true); w.Code != http.StatusOK || !res.Applied {
		t.Fatalf("recovered cluster refuses updates: %d applied=%v", w.Code, res.Applied)
	}
}

// TestRouterPartialApplyReported: when one shard fails mid-fan-out, the
// batch must not be acked applied, the response must carry per-shard
// status, and the floor must still cover the slices that did land.
func TestRouterPartialApplyReported(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.PowerLaw(rng, 150, 5, true)
	src := graph.NodeID(0)
	p := NewHashPartitioner(2)
	good := startShardDaemon(t, g, p, 0, src)
	// Shard 1 is a black hole: accepts connections, returns 500.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	table := NewTable([]string{good.URL, broken.URL})
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, Directed: true, NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// Build a batch guaranteed to touch both shards.
	var b graph.Batch
	var got0, got1 bool
	for v := 0; v < g.NumNodes() && !(got0 && got1); v++ {
		u := graph.NodeID(v)
		if p.Owner(u) == 0 && !got0 {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: (u + 1) % graph.NodeID(g.NumNodes()), W: 1})
			got0 = true
		}
		if p.Owner(u) == 1 && !got1 {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: (u + 2) % graph.NodeID(g.NumNodes()), W: 1})
			got1 = true
		}
	}
	w, res := postBatch(t, h, b, true)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("partial apply returned %d, want 502", w.Code)
	}
	if res.Applied {
		t.Fatal("partial apply acked as applied")
	}
	if len(res.PerShard) != 2 {
		t.Fatalf("per-shard report has %d entries: %+v", len(res.PerShard), res.PerShard)
	}
	statuses := map[int]string{}
	for _, ps := range res.PerShard {
		statuses[ps.Shard] = ps.Status
	}
	if statuses[0] != "applied" || statuses[1] != "error" {
		t.Fatalf("per-shard statuses %v, want shard0 applied / shard1 error", statuses)
	}
	// The applied slice is acknowledged state: the floor must cover it.
	if floor := rt.Floor(); floor[0] == 0 {
		t.Fatalf("floor %v does not cover shard 0's applied slice", floor)
	}
}

// TestRouterCrashMidFanOut: a shard that crashes outright (connection
// refused — not a 5xx-ing server, and not yet marked unhealthy in the
// table) must surface as a per-shard "error" in the update report with
// the batch unacked, and subsequent queries must degrade to a partial
// whose epoch vector still covers the surviving shard's applied slice
// while the crashed shard's entry reads 0 — acknowledged work is never
// silently lost, and staleness is never hidden.
func TestRouterCrashMidFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := gen.PowerLaw(rng, 150, 5, true)
	src := graph.NodeID(0)
	p := NewHashPartitioner(2)
	good := startShardDaemon(t, g, p, 0, src)
	crashed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	table := NewTable([]string{good.URL, crashed.URL})
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, Directed: true, NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	// The crash: the process is gone, connections are refused, but the
	// table has not noticed yet (health still true).
	crashed.Close()

	var b graph.Batch
	var got0, got1 bool
	for v := 0; v < g.NumNodes() && !(got0 && got1); v++ {
		u := graph.NodeID(v)
		if p.Owner(u) == 0 && !got0 {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: (u + 1) % graph.NodeID(g.NumNodes()), W: 1})
			got0 = true
		}
		if p.Owner(u) == 1 && !got1 {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: (u + 2) % graph.NodeID(g.NumNodes()), W: 1})
			got1 = true
		}
	}
	w, res := postBatch(t, h, b, true)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("crash mid-fan-out returned %d, want 502", w.Code)
	}
	if res.Applied {
		t.Fatal("partially applied batch acked as applied")
	}
	statuses := map[int]string{}
	for _, ps := range res.PerShard {
		statuses[ps.Shard] = ps.Status
	}
	if statuses[0] != "applied" || statuses[1] != "error" {
		t.Fatalf("per-shard statuses %v, want shard0 applied / shard1 error", statuses)
	}

	qw, qres := queryRouter(t, h, "sssp", "")
	if qw.Code != http.StatusOK {
		t.Fatalf("query after crash: %d, want 200 degraded partial", qw.Code)
	}
	if !qres.Degraded {
		t.Fatal("partial query not stamped degraded")
	}
	if qres.Epochs[0] == 0 {
		t.Fatalf("epoch vector %v does not cover shard 0's applied slice", qres.Epochs)
	}
	if qres.Epochs[1] != 0 {
		t.Fatalf("crashed shard's epoch entry = %d, want 0", qres.Epochs[1])
	}
	if len(qres.Shards) != 2 || qres.Shards[1].Status != "missing" {
		t.Fatalf("per-shard provenance = %+v, want shard 1 missing", qres.Shards)
	}
}

// TestRouterMinEpochPrecondition: a read demanding a future prefix gets
// 412, and a read demanding the current floor succeeds.
func TestRouterMinEpochPrecondition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLaw(rng, 100, 4, false)
	rt, _ := startCluster(t, g, 2, 0)
	h := rt.Handler()

	b := gen.RandomUpdates(rng, g, 20, 1.0)
	if w, _ := postBatch(t, h, b, true); w.Code != http.StatusOK {
		t.Fatalf("update: %d", w.Code)
	}
	floor := rt.Floor()
	if w, _ := queryRouter(t, h, "sssp", floor.String()); w.Code != http.StatusOK {
		t.Fatalf("read-your-writes at floor %v refused: %d", floor, w.Code)
	}
	future := floor.Clone()
	for i := range future {
		future[i] += 1000
	}
	if w, _ := queryRouter(t, h, "sssp", future.String()); w.Code != http.StatusPreconditionFailed {
		t.Fatalf("future prefix demand returned %d, want 412", w.Code)
	}
	if w, _ := queryRouter(t, h, "sssp", "%%%bad-token"); w.Code != http.StatusBadRequest {
		t.Fatal("garbage min-epoch token accepted")
	}
}

// interferingCluster is a 2-shard cluster whose shard 1 runs behind
// wrap; it returns the router's handler.
func interferingCluster(t *testing.T, g *graph.Graph, src graph.NodeID, wrap func(http.Handler) http.Handler) (*Router, http.Handler) {
	t.Helper()
	p := NewHashPartitioner(2)
	s0 := startShardDaemon(t, g, p, 0, src)
	s1 := startWrappedShard(t, g, p, 1, src, wrap)
	rt, err := NewRouter(RouterOptions{Part: p, Table: NewTable([]string{s0.URL, s1.URL}),
		Directed: g.Directed(), NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return rt, rt.Handler()
}

// TestRouterExchangeUnderWrites: a write that lands on a shard between
// the view gather and its eval must end the exchange within the sweep
// in progress and stamp the answer consistent:false with the epoch the
// shard was seen at — not chase the stream round after round. Beside a
// free-running writer every query still returns after a bounded number
// of evals, and once the cluster is quiescent the answer is consistent
// and exact again.
func TestRouterExchangeUnderWrites(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(12))
	g := gen.PowerLaw(rng, 300, 6, false)
	src := graph.NodeID(0)
	p := NewHashPartitioner(2)
	// An edge inside shard 1, re-weighted before every eval the shard
	// receives: each eval then sees a later epoch than the gather did.
	// gmu guards g, the mirror both writers keep.
	var gmu sync.Mutex
	var eu, ev graph.NodeID = -1, -1
	g.Edges(func(u, v graph.NodeID, w int64) {
		if eu < 0 && p.Owner(u) == 1 && p.Owner(v) == 1 {
			eu, ev = u, v
		}
	})
	if eu < 0 {
		t.Fatal("no edge inside shard 1")
	}
	var interfere atomic.Bool
	_, h := interferingCluster(t, g, src, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if interfere.Load() && strings.HasPrefix(r.URL.Path, "/shard/eval/") {
				gmu.Lock()
				b := graph.Batch{
					{Kind: graph.DeleteEdge, From: eu, To: ev},
					{Kind: graph.InsertEdge, From: eu, To: ev, W: g.Weight(eu, ev) + 1},
				}
				g.Apply(b)
				gmu.Unlock()
				var buf bytes.Buffer
				graph.WriteBatch(&buf, b)
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update?wait=1", &buf))
				if rec.Code != http.StatusOK {
					t.Errorf("interfering write: %d %s", rec.Code, rec.Body.String())
				}
			}
			next.ServeHTTP(w, r)
		})
	})

	interfere.Store(true)
	w, res := queryRouter(t, h, "sssp", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query under writes: %d %s", w.Code, w.Body.String())
	}
	if res.Consistent {
		t.Fatalf("answer assembled across a moving shard stamped consistent: %+v", res.QueryMeta)
	}
	if res.ExchangeRounds != 1 || res.ExchangeEvals > 2 {
		t.Fatalf("exchange chased the stream: %d rounds, %d evals", res.ExchangeRounds, res.ExchangeEvals)
	}
	if res.Epochs[1] != 2 {
		t.Fatalf("epochs %v do not show shard 1 at the epoch it was seen at (2)", res.Epochs)
	}
	if res.Degraded {
		t.Fatal("a moved epoch is an inconsistency, not a degraded partial")
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wr := rand.New(rand.NewSource(13))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Inserts of absent edges commute with the re-weighting above.
			gmu.Lock()
			b := gen.RandomUpdates(wr, g, 8, 1.0)
			g.Apply(b)
			gmu.Unlock()
			var buf bytes.Buffer
			graph.WriteBatch(&buf, b)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/update?wait=1", &buf))
			if w.Code != http.StatusOK {
				t.Errorf("writer: %d %s", w.Code, w.Body.String())
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		w, res := queryRouter(t, h, "sssp", "")
		if w.Code != http.StatusOK {
			t.Fatalf("query %d beside a writer: %d %s", i, w.Code, w.Body.String())
		}
		if res.ExchangeEvals > 16 {
			t.Fatalf("query %d beside a writer made %d evals", i, res.ExchangeEvals)
		}
	}
	close(stop)
	<-done
	interfere.Store(false)

	w, res = queryRouter(t, h, "sssp", "")
	if w.Code != http.StatusOK || !res.Consistent {
		t.Fatalf("quiescent query: %d %+v", w.Code, res.QueryMeta)
	}
	want := sssp.Dijkstra(g, src)
	for v := range want {
		if res.Data.Dist[v] != want[v] {
			t.Fatalf("quiescent dist[%d] = %d, want %d", v, res.Data.Dist[v], want[v])
		}
	}
}

// TestRouterEvalVersionSkew: a shard that answers evals in the old
// dense format is a failed eval — the answer is a degraded partial that
// names the shard — never "this shard improved nothing".
func TestRouterEvalVersionSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := gen.PowerLaw(rng, 200, 5, false)
	_, h := interferingCluster(t, g, 0, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/shard/eval/") {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"algo":"sssp","epoch":0,"values":[0,1,2]}`)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	w, res := queryRouter(t, h, "sssp", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	if !res.Degraded || len(res.Shards) != 2 {
		t.Fatalf("old-protocol shard not reported: degraded=%v shards=%+v", res.Degraded, res.Shards)
	}
	if s := res.Shards[1]; s.Status != "exchange-lost" || !strings.Contains(s.Error, "protocol") {
		t.Fatalf("shard 1 provenance = %+v, want exchange-lost naming the protocol", s)
	}
	if res.Shards[0].Status != "ok" {
		t.Fatalf("shard 0 provenance = %+v, want ok", res.Shards[0])
	}
	// Still a sound partial: nothing undershoots the true distance.
	soundPartial(t, g, 0, res.Data.Dist)
}

// TestWriteQueryMatchesEncodingJSON pins the hand-rolled answer encoder
// to the struct tags: byte-for-byte what json.Marshal produces, except
// that a cc answer carries no "src".
func TestWriteQueryMatchesEncodingJSON(t *testing.T) {
	res := QueryResult{
		QueryMeta: QueryMeta{
			Algo: "sssp", Epochs: EpochVector{3, 0}, EpochToken: EpochVector{3, 0}.String(),
			Consistent: true, Degraded: true,
			Shards:         []QueryShard{{Shard: 1, Status: "missing", Error: `dial "tcp": <refused>`}},
			ExchangeRounds: 2, ExchangeEvals: 3, ExchangePairsOut: 40, ExchangePairsIn: 9,
		},
		Data: QueryData{Src: 7, Dist: []int64{0, 5, graph.Infinity, -1}},
	}
	encode := func(r *QueryResult) []byte {
		rec := httptest.NewRecorder()
		writeQuery(rec, r)
		return bytes.TrimSpace(rec.Body.Bytes())
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(&res); !bytes.Equal(got, want) {
		t.Fatalf("sssp answer\n got %s\nwant %s", got, want)
	}
	var back QueryResult
	if err := json.Unmarshal(encode(&res), &back); err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("sssp answer does not round-trip: %v\n%+v", err, back)
	}

	cc := QueryResult{QueryMeta: QueryMeta{Algo: "cc", Epochs: EpochVector{1}, Consistent: true, ExchangeRounds: 1},
		Data: QueryData{Labels: []int64{0, 0, 2}}}
	want, _ = json.Marshal(cc)
	want = bytes.Replace(want, []byte(`"src":0,`), nil, 1)
	if got := encode(&cc); !bytes.Equal(got, want) {
		t.Fatalf("cc answer\n got %s\nwant %s", got, want)
	}
	// An empty vector is [], not null or absent.
	empty := QueryResult{QueryMeta: QueryMeta{Algo: "cc"}}
	if got := encode(&empty); !bytes.HasSuffix(got, []byte(`"data":{"labels":[]}}`)) {
		t.Fatalf("empty answer: %s", got)
	}
}

func TestTablePromote(t *testing.T) {
	table := NewTable([]string{"http://a", "http://b"})
	if r := table.Replica(0); r != "" {
		t.Fatalf("replica %q reported where none registered", r)
	}
	table.SetReplica(0, "http://a2")
	addr, healthy := table.Active(0)
	if addr != "http://a" || !healthy {
		t.Fatalf("active = %q healthy=%v", addr, healthy)
	}
	table.SetHealth(0, false)
	if _, healthy := table.Active(0); healthy {
		t.Fatal("health flag ignored")
	}
	if addr, err := table.Promote(0); err != nil || addr != "http://a2" {
		t.Fatalf("promote: addr=%q err=%v", addr, err)
	}
	addr, healthy = table.Active(0)
	if addr != "http://a2" || !healthy {
		t.Fatalf("after promote: active = %q healthy=%v", addr, healthy)
	}
	snap := table.Snapshot()
	if len(snap) != 2 || snap[0].Generation == 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	if _, err := table.Promote(1); err == nil {
		t.Fatal("promote without replica succeeded")
	}
}
