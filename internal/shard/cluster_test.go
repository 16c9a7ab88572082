package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// startDurableShard is startShardDaemon with a data directory: updates
// are logged under fsync-always and the segments served under /wal/.
func startDurableShard(t *testing.T, g *graph.Graph, p Partitioner, id int, src graph.NodeID) (*Node, *httptest.Server) {
	t.Helper()
	cfg := shardConfig(g, p, id, src)
	cfg.DataDir, cfg.Sync = t.TempDir(), wal.SyncAlways
	n := bootNode(t, cfg, serve.OpenDurable)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv
}

// startObservedReplica boots a warm replica of shard id at primaryURL,
// whose promotion opens the shipped log with open.
func startObservedReplica(t *testing.T, g *graph.Graph, p Partitioner, id int, src graph.NodeID, primaryURL string, open openLog) (*Follower, *httptest.Server) {
	t.Helper()
	cfg := shardConfig(g, p, id, src)
	cfg.DataDir, cfg.Sync, cfg.ReplicaOf = t.TempDir(), wal.SyncAlways, primaryURL
	n := bootNode(t, cfg, open)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n.follower, srv
}

// TestReplicaPromoteRetry: a promotion that fails — the shipped log
// cannot be opened — leaves the replica promotable. The gate stays up
// (stale reads, refused writes), the second attempt succeeds at the
// epochs the replica had replayed to, a third is told 409, and the
// promoted replica takes writes.
func TestReplicaPromoteRetry(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(43))
	g := gen.PowerLaw(rng, 120, 4, true)
	p := NewHashPartitioner(1)
	_, primary := startDurableShard(t, g, p, 0, 0)
	// The first attempt opens the log under a regular file: MkdirAll fails.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	_, repl := startObservedReplica(t, g, p, 0, 0, primary.URL, func(svc *serve.Service, dir string, opt serve.DurableOptions) (*serve.Durable, error) {
		if attempts++; attempts == 1 {
			dir = filepath.Join(blocker, "wal")
		}
		return serve.OpenDurable(svc, dir, opt)
	})

	ctx := context.Background()
	pc, rc := &Client{Base: primary.URL}, &Client{Base: repl.URL}
	batch := gen.RandomUpdates(rng, g.Clone(), 30, 0.3)
	out, err := pc.Update(ctx, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	info := func() Info {
		t.Helper()
		in, err := rc.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	deadline := time.Now().Add(10 * time.Second)
	for !reflect.DeepEqual(info().Epochs, out.Epochs) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %v, want %v", info().Epochs, out.Epochs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Before promotion: writes and evals refused, the rest of the API up.
	if _, err := rc.Update(ctx, batch, true); !IsShed(err) {
		t.Fatalf("POST /update on a warm replica: err = %v, want a 503", err)
	}
	if _, err := rc.Eval(ctx, "sssp", nil); err == nil {
		t.Fatal("POST /shard/eval on a warm replica succeeded")
	}
	for _, path := range []string{"/stats", "/debug/applies", "/debug/boundedness", "/replica/status"} {
		if resp, err := http.Get(repl.URL + path); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on a warm replica: %v %v", path, resp, err)
		} else {
			resp.Body.Close()
		}
	}

	if _, err := rc.Promote(ctx); err == nil {
		t.Fatal("promotion succeeded with an unopenable log")
	}
	if in := info(); !in.Replica || !reflect.DeepEqual(in.Epochs, out.Epochs) {
		t.Fatalf("after a failed promotion: %+v, want a replica at %v", in, out.Epochs)
	}
	if v, err := rc.View(ctx, "sssp"); err != nil || !v.Degraded {
		t.Fatalf("stale read after a failed promotion: degraded=%v err=%v", v.Degraded, err)
	}
	epochs, err := rc.Promote(ctx)
	if err != nil || !reflect.DeepEqual(epochs, out.Epochs) {
		t.Fatalf("second promotion: epochs %v err %v, want %v", epochs, err, out.Epochs)
	}
	if in := info(); in.Replica || !reflect.DeepEqual(in.Epochs, out.Epochs) {
		t.Fatalf("after promotion: %+v, want a primary at %v", in, out.Epochs)
	}
	var se *StatusError
	if _, err := rc.Promote(ctx); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("third promotion: err = %v, want 409", err)
	}
	after, err := rc.Update(ctx, gen.RandomUpdates(rng, g.Clone(), 10, 0.3), true)
	if err != nil || after.Epochs["sssp"] != out.Epochs["sssp"]+10 {
		t.Fatalf("write to the promoted replica: epochs %v err %v", after.Epochs, err)
	}
	if v, err := rc.View(ctx, "sssp"); err != nil || v.Degraded {
		t.Fatalf("read after promotion: degraded=%v err=%v", v.Degraded, err)
	}
}

// get runs one GET against the router handler and returns the recorder.
func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// mergedSpans fetches /debug/cluster/trace filtered to tid and indexes
// the surviving span names by process name.
func mergedSpans(t *testing.T, h http.Handler, tid trace.TraceID) map[string][]string {
	t.Helper()
	w := get(t, h, "/debug/cluster/trace?trace="+tid.String())
	if w.Code != http.StatusOK {
		t.Fatalf("cluster trace: %d %s", w.Code, w.Body.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("cluster trace not JSON: %v", err)
	}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID], _ = ev.Args["name"].(string)
		}
	}
	spans := map[string][]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if got, _ := ev.Args["traceparent_id"].(string); got != tid.String() {
			t.Fatalf("filtered timeline leaked event %q with trace %q, want %s", ev.Name, got, tid)
		}
		spans[procs[ev.PID]] = append(spans[procs[ev.PID]], ev.Name)
	}
	return spans
}

func containsSpan(spans []string, name string) bool {
	for _, s := range spans {
		if s == name {
			return true
		}
	}
	return false
}

// metricLine finds the first sample line of family name whose label set
// contains every want substring, returning its value.
func metricLine(t *testing.T, body, name string, want ...string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		// Exact family match: the prefix must end at '{' or ' '.
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		ok := true
		for _, wnt := range want {
			if !strings.Contains(line, wnt) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric line %q: bad value: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestClusterObservabilityE2E is the issue's acceptance scenario over a
// real 2-shard + 1-replica topology: one POST /update carrying a
// client-supplied traceparent must yield (a) a merged Perfetto timeline
// at /debug/cluster/trace with router, both shards, and the replica's
// replay under that one trace ID, and (b) a /cluster/metrics exposition
// with per-shard apply latency, epoch skew, and follower lag-seconds —
// all present and numeric. Run under -race this also exercises the
// cross-process scrape fan-in against live members.
func TestClusterObservabilityE2E(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(42))
	g := gen.PowerLaw(rng, 120, 4, true)
	src := graph.NodeID(0)
	p := NewHashPartitioner(2)
	_, s0 := startDurableShard(t, g, p, 0, src)
	_, s1 := startDurableShard(t, g, p, 1, src)
	follower, repl := startObservedReplica(t, g, p, 0, src, s0.URL, serve.OpenDurable)

	table := NewTable([]string{s0.URL, s1.URL})
	table.SetReplica(0, repl.URL)
	rt, err := NewRouter(RouterOptions{Part: p, Table: table, Directed: true, NumNodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// One traced update spanning both shards.
	b := gen.RandomUpdates(rng, g.Clone(), 40, 0.3)
	tid := trace.NewTraceID()
	var buf bytes.Buffer
	if err := graph.WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/update?wait=1", &buf)
	req.Header.Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var res RouterUpdateResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("update response %d not JSON: %s", w.Code, w.Body.String())
	}
	if w.Code != http.StatusOK || !res.Applied || res.Routed != 2 {
		t.Fatalf("traced update: code=%d applied=%v routed=%d (%s)", w.Code, res.Applied, res.Routed, w.Body.String())
	}
	if got := w.Header().Get("traceparent"); !strings.Contains(got, tid.String()) {
		t.Fatalf("response traceparent %q does not carry request trace %s", got, tid)
	}

	// Wait until the replica has replayed shard 0's slice of the batch.
	var want uint64
	for _, ps := range res.PerShard {
		if ps.Shard == 0 {
			want = uint64(ps.Updates)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for follower.Epochs()["sssp"] < want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %v, want %d", follower.Epochs(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// (a) Merged timeline: all four processes under the one trace ID.
	var spans map[string][]string
	for {
		spans = mergedSpans(t, h, tid)
		if containsSpan(spans["router"], "update") &&
			containsSpan(spans["shard-0"], "apply") &&
			containsSpan(spans["shard-1"], "apply") &&
			containsSpan(spans["replica-0"], "replay") &&
			containsSpan(spans["replica-0"], "batch") { // the replica's own apply loop, under the primary's trace ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merged timeline incomplete: %v", spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{"split", "fanout"} {
		if !containsSpan(spans["router"], name) {
			t.Errorf("router timeline missing %q span: %v", name, spans["router"])
		}
	}

	// (b) Federated metrics: per-shard apply latency, epoch skew,
	// follower lag — present and numeric.
	mw := get(t, h, "/cluster/metrics")
	if mw.Code != http.StatusOK {
		t.Fatalf("cluster metrics: %d", mw.Code)
	}
	body := mw.Body.String()
	for shard := 0; shard < 2; shard++ {
		sl := `shard="` + strconv.Itoa(shard) + `"`
		if _, ok := metricLine(t, body, "incgraph_apply_latency_seconds_count", sl, `role="primary"`); !ok {
			t.Errorf("no per-shard apply latency for shard %d:\n%s", shard, body)
		}
	}
	checks := []struct {
		name string
		want []string
	}{
		{"incgraph_replica_lag_seconds", []string{`role="replica"`, `shard="0"`}},
		{"incrouter_cluster_epoch_skew", nil},
		{"incrouter_cluster_replica_lag_seconds", nil},
		{"incrouter_cluster_shed_total", nil},
		{"incrouter_cluster_apply_latency_seconds_count", nil},
		{"incrouter_cluster_bounded_ratio_count", nil},
		{"incrouter_cluster_bounded_ratio", []string{`quantile="0.95"`}},
		{"incrouter_cluster_bounded_ratio_worst", nil},
	}
	for _, c := range checks {
		v, ok := metricLine(t, body, c.name, c.want...)
		if !ok {
			t.Errorf("missing %s series (labels %v)", c.name, c.want)
			continue
		}
		if math.IsNaN(v) {
			t.Errorf("%s is NaN", c.name)
		}
	}
	if v, _ := metricLine(t, body, "incrouter_cluster_apply_latency_seconds_count"); v == 0 {
		t.Errorf("cluster apply-latency rollup counted no samples")
	}
	// The replica hosts its maintainers, so it exports the per-host
	// families under role="replica" and its view epoch counts in the skew;
	// the work rollups still count each accepted batch once — primaries.
	for _, fam := range []string{"incgraph_view_epoch", "incgraph_apply_latency_seconds_count", "incgraph_bounded_ratio_count"} {
		if _, ok := metricLine(t, body, fam, `role="replica"`, `shard="0"`, `algo="sssp"`); !ok {
			t.Errorf("replica exports no %s series", fam)
		}
	}
	for rollup, fam := range map[string]string{
		"incrouter_cluster_apply_latency_seconds_count": "incgraph_apply_latency_seconds_count",
		"incrouter_cluster_bounded_ratio_count":         "incgraph_bounded_ratio_count",
	} {
		var primaries, replicas float64
		for _, algo := range []string{"sssp", "cc"} {
			for shard := 0; shard < 2; shard++ {
				v, _ := metricLine(t, body, fam, `role="primary"`, `shard="`+strconv.Itoa(shard)+`"`, `algo="`+algo+`"`)
				primaries += v
			}
			v, _ := metricLine(t, body, fam, `role="replica"`, `algo="`+algo+`"`)
			replicas += v
		}
		if got, _ := metricLine(t, body, rollup); got != primaries || replicas == 0 {
			t.Errorf("%s = %v, want the primaries' %v (replica series hold %v more)", rollup, got, primaries, replicas)
		}
	}
	if v, _ := metricLine(t, body, "incrouter_cluster_members", `state="reachable"`); v != 3 {
		t.Errorf("reachable members = %v, want 3", v)
	}
	if v, _ := metricLine(t, body, "incrouter_cluster_bounded_ratio_count"); v == 0 {
		t.Errorf("cluster bounded-ratio rollup counted no samples")
	}
	if v, _ := metricLine(t, body, "incrouter_cluster_bounded_ratio_worst"); v <= 0 {
		t.Errorf("cluster worst bounded ratio = %v, want > 0", v)
	}

	// Merged offender ring: both shards contributed, sorted worst-first,
	// every quotient finite, and the algo filter narrows the set.
	ow := get(t, h, "/cluster/offenders")
	if ow.Code != http.StatusOK {
		t.Fatalf("cluster offenders: %d", ow.Code)
	}
	var offRes struct {
		Offenders        []ClusterOffender `json:"offenders"`
		MembersReachable int               `json:"members_reachable"`
	}
	if err := json.Unmarshal(ow.Body.Bytes(), &offRes); err != nil {
		t.Fatalf("cluster offenders not JSON: %v (%s)", err, ow.Body.String())
	}
	// Both primaries answer the offender scrape, and so does the replica:
	// its hosts keep the same rings, attributed to "replica-0".
	if offRes.MembersReachable != 3 || len(offRes.Offenders) == 0 {
		t.Fatalf("offender merge: reachable=%d entries=%d", offRes.MembersReachable, len(offRes.Offenders))
	}
	shardsSeen := map[int]bool{}
	for i, o := range offRes.Offenders {
		if math.IsNaN(o.BoundedRatio) || math.IsInf(o.BoundedRatio, 0) {
			t.Fatalf("offender %d has non-finite ratio: %+v", i, o)
		}
		if i > 0 && offRes.Offenders[i-1].BoundedRatio < o.BoundedRatio {
			t.Fatalf("offenders not sorted worst-first at %d", i)
		}
		shardsSeen[o.Shard] = true
	}
	if !shardsSeen[0] || !shardsSeen[1] {
		t.Errorf("offender merge missing a shard: %v", shardsSeen)
	}
	ow = get(t, h, "/cluster/offenders?algo=sssp&n=3")
	offRes.Offenders = nil
	if err := json.Unmarshal(ow.Body.Bytes(), &offRes); err != nil {
		t.Fatal(err)
	}
	if len(offRes.Offenders) == 0 || len(offRes.Offenders) > 3 {
		t.Fatalf("filtered offenders: %d entries", len(offRes.Offenders))
	}
	for _, o := range offRes.Offenders {
		if o.Algo != "sssp" {
			t.Fatalf("algo filter leaked %q", o.Algo)
		}
	}

	// Topology health: every member row present, floor covered.
	hw := get(t, h, "/cluster/health")
	var health struct {
		Members    []memberHealth `json:"members"`
		Consistent bool           `json:"consistent"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatalf("cluster health not JSON: %v", err)
	}
	if len(health.Members) != 3 || !health.Consistent {
		t.Fatalf("cluster health: members=%d consistent=%v (%s)", len(health.Members), health.Consistent, hw.Body.String())
	}
	for _, m := range health.Members {
		if !m.Reachable {
			t.Errorf("member %s unreachable in health report", m.Name)
		}
	}
}

// TestClusterTraceBadFilter: an unparseable ?trace= is a client error,
// not a silent unfiltered dump.
func TestClusterTraceBadFilter(t *testing.T) {
	rt, _ := startCluster(t, gen.PowerLaw(rand.New(rand.NewSource(7)), 40, 3, true), 1, 0)
	w := get(t, rt.Handler(), "/debug/cluster/trace?trace=nope")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad filter: got %d, want 400", w.Code)
	}
}

// TestClusterEventsEndpoint: the router serves the supervisor's shared
// topology ring, newest last, with ?n= keeping only the tail.
func TestClusterEventsEndpoint(t *testing.T) {
	events := obs.NewRing[TopologyEvent](8)
	g := gen.PowerLaw(rand.New(rand.NewSource(9)), 40, 3, true)
	p := NewHashPartitioner(1)
	srv := startShardDaemon(t, g, p, 0, 0)
	rt, err := NewRouter(RouterOptions{
		Part: p, Table: NewTable([]string{srv.URL}),
		Directed: true, NumNodes: g.NumNodes(), Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	events.Push(TopologyEvent{UnixNanos: 1, Kind: "spawn", Member: "a", Shard: 0})
	events.Push(TopologyEvent{UnixNanos: 2, Kind: "probe-fail", Member: "a", Shard: 0})
	events.Push(TopologyEvent{UnixNanos: 3, Kind: "promote", Member: "b", Shard: 0, Detail: "gen 1"})

	w := get(t, rt.Handler(), "/cluster/events?n=2")
	var out struct {
		Events []TopologyEvent `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("events not JSON: %v", err)
	}
	if len(out.Events) != 2 || out.Events[0].Kind != "probe-fail" || out.Events[1].Kind != "promote" {
		t.Fatalf("events tail = %+v, want newest two", out.Events)
	}
}

// TestQueryNRoutes holds the five debug routes that take ?n= to the one
// rule of obs.QueryN: absent, or a non-negative integer (clamped to the
// route's cap), is answered; anything else is a 400. The cluster trace and
// events routes used to drop the parse error and answer everything.
func TestQueryNRoutes(t *testing.T) {
	rt, table := startCluster(t, gen.PowerLaw(rand.New(rand.NewSource(7)), 40, 3, true), 1, 0)
	member := table.Snapshot()[0].Primary
	fetch := func(route string) int {
		if strings.HasPrefix(route, "/debug/applies") { // a member's route
			resp, err := http.Get(member + route)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		return get(t, rt.Handler(), route).Code
	}
	routes := []string{"/debug/trace", "/debug/applies", "/cluster/offenders", "/debug/cluster/trace", "/cluster/events"}
	for _, route := range routes {
		for q, want := range map[string]int{
			"": http.StatusOK, "?n=0": http.StatusOK, "?n=3": http.StatusOK, "?n=99999": http.StatusOK,
			"?n=abc": http.StatusBadRequest, "?n=-1": http.StatusBadRequest, "?n=1.5": http.StatusBadRequest,
			"?n=99999999999999999999": http.StatusBadRequest,
		} {
			if got := fetch(route + q); got != want {
				t.Errorf("GET %s%s = %d, want %d", route, q, got, want)
			}
		}
	}
}
