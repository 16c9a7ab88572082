package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/shard"
	"incgraph/internal/sssp"
)

// exchangeQueries is how many update-then-query rounds ExpExchange
// measures per topology.
const exchangeQueries = 20

// wireCounter counts what the router moves to answer queries: the eval
// requests it makes and the request + response body bytes of its view
// fetches and evals.
type wireCounter struct {
	evals, bytes atomic.Int64
}

func (c *wireCounter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		eval := strings.HasPrefix(r.URL.Path, "/shard/eval/")
		if !eval && !strings.HasPrefix(r.URL.Path, "/query/") {
			next.ServeHTTP(w, r)
			return
		}
		if eval {
			c.evals.Add(1)
		}
		c.bytes.Add(max(r.ContentLength, 0))
		next.ServeHTTP(&countingWriter{w, &c.bytes}, r)
	})
}

// countingWriter adds response bytes as they are written, so the count
// is complete by the time the client has read the response.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}

// ExpExchange is rung (f) of the benchmark ladder: what a routed SSSP
// query costs in the router's boundary exchange, at 1, 2 and 4 shards.
// Each topology is a real shard.Router over in-process shard daemons
// (serve.Service + the shard API behind loopback HTTP servers) on the
// repository benchmark's cluster shape — an undirected power-law graph,
// |V| = 3,000 × scale, degree 16, hash-partitioned. A round routes a
// 64-update batch and then asks for /query/sssp; per query the table
// reports the shard evals, the (vertex, value) pairs sent out as seeds
// and received back as improvements, the bytes moved between router and
// shards (view fetches included), and the median latency, beside a
// full-graph Dijkstra for scale.
//
// One Result row is reported per topology and count: Workload names the
// count ("evals", "pairs_out", "pairs_in", "bytes"), Workers is the
// shard count, Work the total over the measured queries and
// BoundedRatio the count per query — deterministic for a fixed seed and
// scale, so incbench -diff holds it to its tight tolerance — while
// IncSeconds is the median query latency and BatchSeconds the Dijkstra.
func ExpExchange(cfg Config) {
	n := int(3000 * cfg.Scale)
	if n < 64 {
		n = 64
	}
	dataset := fmt.Sprintf("PL-%dx16", n)
	t := newTable(cfg.Out, "Boundary exchange: routed SSSP query on "+dataset+" (per query)",
		"shards", "evals", "pairs out", "pairs in", "bytes moved", "query p50", "Dijkstra")
	defer t.flush()
	for _, shards := range []int{1, 2, 4} {
		m, err := measureExchange(cfg.Seed, n, shards)
		if err != nil {
			fmt.Fprintf(cfg.Out, "exchange at %d shards: %v\n", shards, err)
			return
		}
		per := func(x int64) string { return fmt.Sprintf("%.1f", float64(x)/exchangeQueries) }
		t.row(shards, per(m.evals), per(m.pairsOut), per(m.pairsIn), per(m.bytes), m.p50, m.dijkstra)
		for _, c := range []struct {
			name  string
			count int64
		}{{"evals", m.evals}, {"pairs_out", m.pairsOut}, {"pairs_in", m.pairsIn}, {"bytes", m.bytes}} {
			cfg.report(Result{Experiment: "exchange", Dataset: dataset, Algo: "SSSPExchange",
				Workload: c.name, Workers: shards, BatchSeconds: m.dijkstra, IncSeconds: m.p50,
				Work: c.count, BoundedRatio: float64(c.count) / exchangeQueries})
		}
	}
}

// exchangeCost is one topology's totals over exchangeQueries queries.
type exchangeCost struct {
	evals, pairsOut, pairsIn, bytes int64
	p50, dijkstra                   float64 // seconds
}

// measureExchange stands up a router over shards in-process shard
// daemons and runs the update-then-query rounds against it.
func measureExchange(seed int64, n, shards int) (m exchangeCost, err error) {
	rng := newRNG(seed)
	g := gen.PowerLaw(rng, n, 16, false)
	src := graph.NodeID(0)
	part := shard.NewHashPartitioner(shards)
	var wire wireCounter
	addrs := make([]string, shards)
	for id := range addrs {
		frag := shard.FilterGraph(g, part, id)
		svc := serve.NewService()
		defer svc.Close()
		if _, err := svc.Host(serve.SSSP(sssp.NewInc(frag, src)), serve.Options{}); err != nil {
			return m, err
		}
		if _, err := svc.Host(serve.CC(cc.NewInc(frag.Clone())), serve.Options{}); err != nil {
			return m, err
		}
		shard.MountShardAPI(svc, part, id, n, false, nil)
		srv := httptest.NewServer(wire.wrap(svc.Handler()))
		defer srv.Close()
		addrs[id] = srv.URL
	}
	rt, err := shard.NewRouter(shard.RouterOptions{Part: part, Table: shard.NewTable(addrs), NumNodes: n})
	if err != nil {
		return m, err
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	var lat []float64
	for q := -2; q < exchangeQueries; q++ { // two warm-up rounds
		b := gen.RandomUpdates(rng, g, 64, 0.5)
		g.Apply(b)
		var body bytes.Buffer
		if err := graph.WriteBatch(&body, b); err != nil {
			return m, err
		}
		if _, err := call(router.URL+"/update?wait=1", &body); err != nil {
			return m, err
		}
		e0, b0 := wire.evals.Load(), wire.bytes.Load()
		// The clock stops when the answer has been read: decoding its
		// 3,000 distances to get at two counters is this client's cost,
		// not the router's.
		start := time.Now()
		answer, err := call(router.URL+"/query/sssp", nil)
		sec := time.Since(start).Seconds()
		if err != nil {
			return m, err
		}
		if q < 0 {
			continue
		}
		var res struct {
			PairsOut int64 `json:"exchange_pairs_out"`
			PairsIn  int64 `json:"exchange_pairs_in"`
		}
		if err := json.Unmarshal(answer, &res); err != nil {
			return m, err
		}
		lat = append(lat, sec)
		m.evals += wire.evals.Load() - e0
		m.bytes += wire.bytes.Load() - b0
		m.pairsOut += res.PairsOut
		m.pairsIn += res.PairsIn
	}
	sort.Float64s(lat)
	m.p50 = lat[len(lat)/2]
	m.dijkstra = stopwatch(func() { sssp.Dijkstra(g, src) })
	return m, nil
}

// call POSTs body (nil: GETs) and returns a 200 response's body.
func call(url string, body io.Reader) ([]byte, error) {
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	return data, nil
}
