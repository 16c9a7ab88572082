package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/obs"
	"incgraph/internal/shard"
	"incgraph/internal/trace"
)

// TestShardedE2E is the full crash-promotion drill over real processes:
// build incgraphd, spawn 2 durable shard daemons each with a warm
// log-shipping replica, route updates through an in-process Router,
// kill -9 one primary mid-stream, wait for the supervisor to promote
// its replica, keep ingesting, and finally check the sharded answers
// against a single-process recompute of everything that was acked.
func TestShardedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}

	bin := t.TempDir() + "/incgraphd"
	if out, err := exec.Command("go", "build", "-o", bin, "incgraph/cmd/incgraphd").CombinedOutput(); err != nil {
		t.Fatalf("building incgraphd: %v\n%s", err, out)
	}

	const (
		nodes = 400
		deg   = 6
		seed  = 7
	)
	c := &routerFlags{
		spawn:     true,
		incgraphd: bin,
		shards:    2,
		replicas:  1,
		basePort:  pickPortBlock(t, 4),
		dataRoot:  t.TempDir(),
		fsync:     "always",
		algos:     "sssp,cc",
		src:       0,
		genKind:   "powerlaw",
		genNodes:  nodes,
		genDeg:    deg,
		genDirect: true,
		genSeed:   seed,
	}
	specs, primaries := childSpecs(c)
	table := shard.NewTable(primaries)
	events := obs.NewRing[shard.TopologyEvent](64)
	sup, err := shard.NewSupervisor(shard.SupervisorOptions{
		Table:  table,
		Specs:  specs,
		Events: events,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)
	if err := sup.WaitReady(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	info, err := discover(table)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != nodes || !info.Directed || info.Shards != 2 {
		t.Fatalf("discovered topology %+v", info)
	}
	part, err := shard.NewPartitioner(info.Partitioner, 2)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter(shard.RouterOptions{
		Part: part, Table: table, Directed: true, NumNodes: nodes,
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := router.Handler()

	// The oracle mirrors the children's deterministic synthetic graph and
	// accumulates exactly the batches the router acked as applied.
	oracle := incgraph.PowerLawGraph(seed, nodes, deg, true)

	post := func(b incgraph.Batch) (int, bool) {
		var buf bytes.Buffer
		if err := incgraph.WriteBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/update?wait=1", &buf)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var res struct {
			Applied bool `json:"applied"`
		}
		json.Unmarshal(w.Body.Bytes(), &res)
		return w.Code, res.Applied
	}
	mustPost := func(b incgraph.Batch, deadline time.Duration) {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			code, applied := post(b)
			if code == http.StatusOK && applied {
				return
			}
			if time.Now().After(end) {
				t.Fatalf("batch never applied (last status %d)", code)
			}
			// Full-batch retries are safe: InsertEdge is a no-op on a
			// present edge and DeleteEdge on an absent one.
			time.Sleep(200 * time.Millisecond)
		}
	}

	// Phase 1: ingest with a healthy topology.
	streamSeed := int64(1000)
	nextBatch := func(count int) incgraph.Batch {
		streamSeed++
		return incgraph.RandomUpdates(streamSeed, oracle, count, 0.5)
	}
	for i := 0; i < 3; i++ {
		b := nextBatch(40)
		mustPost(b, 30*time.Second)
		oracle.Apply(b)
	}

	// One traced batch: the client-supplied traceparent must come back on
	// the distributed timeline from every process that touched the batch.
	tid := postTraced(t, h, func() incgraph.Batch {
		b := nextBatch(20)
		oracle.Apply(b)
		return b
	}())

	// Quiesce: wait until shard 0's replica has replayed everything the
	// primary acked, so the promotion loses nothing and the oracle stays
	// exact. (Replication is async; acked-but-unshipped tail updates are
	// lost by design and surfaced via the epoch vector — this test pins
	// the lossless path, the shard package tests cover the lossy one.)
	primary0 := primaries[0]
	replica0 := table.Replica(0)
	if replica0 == "" {
		t.Fatal("no replica registered for shard 0")
	}
	waitCaughtUp(t, primary0, replica0, 30*time.Second)

	// Cluster observability over the live topology: the merged timeline
	// must show the traced batch on the router and both shards (and the
	// replica's replay, now that it has caught up)...
	checkClusterTrace(t, h, tid)
	// ...and the federated metrics must carry per-shard apply latency,
	// replication lag, and epoch skew — present and numeric.
	checkClusterMetrics(t, h)

	// Kill -9 the shard 0 primary and wait for the supervisor to promote.
	pid, ok := sup.Pid("shard0")
	if !ok {
		t.Fatal("no pid for shard0")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	promoteEnd := time.Now().Add(60 * time.Second)
	for {
		if addr, healthy := table.Active(0); healthy && addr == replica0 {
			break
		}
		if time.Now().After(promoteEnd) {
			addr, healthy := table.Active(0)
			t.Fatalf("no promotion: active=%q healthy=%v", addr, healthy)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if g := table.Snapshot()[0].Generation; g != 1 {
		t.Fatalf("slot 0 generation = %d after promotion", g)
	}

	// Phase 2: keep ingesting through the promoted replica.
	for i := 0; i < 3; i++ {
		b := nextBatch(40)
		mustPost(b, 60*time.Second)
		oracle.Apply(b)
	}

	// Recompute equality: the sharded answers must match a full
	// single-process recompute of the acked stream.
	wantDist := incgraph.SSSP(oracle, 0)
	wantLabels := incgraph.ConnectedComponents(oracle)

	var q struct {
		Consistent bool `json:"consistent"`
		Data       struct {
			Src    int     `json:"src"`
			Dist   []int64 `json:"dist"`
			Labels []int64 `json:"labels"`
		} `json:"data"`
	}
	query := func(algo string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/query/"+algo, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("query %s: %d %s", algo, w.Code, w.Body.String())
		}
		q.Data.Dist, q.Data.Labels = nil, nil
		if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
			t.Fatal(err)
		}
		if !q.Consistent {
			t.Fatalf("%s answer inconsistent after lossless promotion", algo)
		}
	}
	query("sssp")
	for v := range wantDist {
		if q.Data.Dist[v] != wantDist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, q.Data.Dist[v], wantDist[v])
		}
	}
	query("cc")
	for v := range wantLabels {
		if q.Data.Labels[v] != wantLabels[v] {
			t.Fatalf("label[%d] = %d, want %d", v, q.Data.Labels[v], wantLabels[v])
		}
	}

	// The supervisor's actions left an audit trail at /cluster/events:
	// the kill shows up as probe failures (or a child exit) and exactly
	// the promotion we observed.
	kinds := map[string]int{}
	for _, ev := range events.Snapshot() {
		kinds[ev.Kind]++
	}
	if kinds["promote"] == 0 {
		t.Fatalf("no promote event recorded; events = %v", kinds)
	}
	if kinds["spawn"] < 4 {
		t.Fatalf("expected 4 spawn events, got %v", kinds)
	}
}

// postTraced posts one batch through the router with a client-supplied
// traceparent and returns its trace ID.
func postTraced(t *testing.T, h http.Handler, b incgraph.Batch) trace.TraceID {
	t.Helper()
	tid := trace.NewTraceID()
	end := time.Now().Add(30 * time.Second)
	for {
		var buf bytes.Buffer
		if err := incgraph.WriteBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/update?wait=1", &buf)
		req.Header.Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var res struct {
			Applied bool `json:"applied"`
		}
		json.Unmarshal(w.Body.Bytes(), &res)
		if w.Code == http.StatusOK && res.Applied {
			return tid
		}
		if time.Now().After(end) {
			t.Fatalf("traced batch never applied (last status %d)", w.Code)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// checkClusterTrace asserts the merged timeline contains the traced
// request's spans from the router and every shard process (retrying
// briefly: shard rings are written asynchronously to the ack).
func checkClusterTrace(t *testing.T, h http.Handler, tid trace.TraceID) {
	t.Helper()
	end := time.Now().Add(15 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/debug/cluster/trace?trace="+tid.String(), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
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
		spans := map[string]int{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" && ev.Name == "process_name" {
				procs[ev.PID], _ = ev.Args["name"].(string)
			}
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "M" {
				spans[procs[ev.PID]]++
			}
		}
		if spans["router"] > 0 && spans["shard-0"] > 0 && spans["shard-1"] > 0 && spans["replica-0"] > 0 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("merged timeline incomplete: spans per process = %v", spans)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// checkClusterMetrics asserts the federated exposition carries the
// series the CI gate requires — per-shard apply latency, replica
// lag-seconds, epoch skew — all present with numeric values.
func checkClusterMetrics(t *testing.T, h http.Handler) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/cluster/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("cluster metrics: %d", w.Code)
	}
	body := w.Body.String()
	// series sums the values of name's sample lines that carry every label.
	series := func(name string, labels ...string) (sum float64, n int) {
		t.Helper()
	lines:
		for _, line := range strings.Split(body, "\n") {
			rest, ok := strings.CutPrefix(line, name)
			if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
				continue
			}
			for _, l := range labels {
				if !strings.Contains(line, l) {
					continue lines
				}
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil || math.IsNaN(v) {
				t.Fatalf("series %s has non-numeric value in %q (err %v)", name, line, err)
			}
			sum, n = sum+v, n+1
		}
		return sum, n
	}
	mustSeries := func(name string, labels ...string) {
		t.Helper()
		if _, n := series(name, labels...); n == 0 {
			t.Fatalf("federated metrics missing %s%v:\n%s", name, labels, body)
		}
	}
	mustSeries("incgraph_apply_latency_seconds_count", `shard="0"`, `role="primary"`)
	mustSeries("incgraph_apply_latency_seconds_count", `shard="1"`, `role="primary"`)
	mustSeries("incgraph_replica_lag_seconds", `shard="0"`, `role="replica"`)
	mustSeries("incrouter_cluster_epoch_skew")
	mustSeries("incrouter_cluster_replica_lag_seconds")
	mustSeries("incrouter_cluster_apply_latency_seconds_count")
	// A warm replica hosts its maintainers: it exports the per-host
	// families (its view epochs count in the skew), and the work rollups
	// still count every accepted batch once — on the primaries.
	mustSeries("incgraph_view_epoch", `shard="0"`, `role="replica"`)
	for rollup, fam := range map[string]string{
		"incrouter_cluster_apply_latency_seconds_count": "incgraph_apply_latency_seconds_count",
		"incrouter_cluster_bounded_ratio_count":         "incgraph_bounded_ratio_count",
	} {
		got, _ := series(rollup)
		primaries, _ := series(fam, `role="primary"`)
		if replicas, _ := series(fam, `role="replica"`); got != primaries || replicas == 0 {
			t.Fatalf("%s = %v, want the primaries' %v (replicas hold %v more)", rollup, got, primaries, replicas)
		}
	}
}

// waitCaughtUp blocks until the replica's replayed per-algo epochs match
// the primary's view epochs.
func waitCaughtUp(t *testing.T, primary, replica string, timeout time.Duration) {
	t.Helper()
	end := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		pinfo, perr := (&shard.Client{Base: primary}).Info(ctx)
		var st struct {
			Epochs map[string]uint64 `json:"epochs"`
		}
		rerr := getJSONStatus(ctx, replica+"/replica/status", &st)
		cancel()
		if perr == nil && rerr == nil {
			caught := len(pinfo.Epochs) > 0
			for algo, e := range pinfo.Epochs {
				if st.Epochs[algo] < e {
					caught = false
				}
			}
			if caught {
				return
			}
		}
		if time.Now().After(end) {
			t.Fatalf("replica never caught up (primary %v, replica %v, errs %v/%v)",
				pinfo.Epochs, st.Epochs, perr, rerr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func getJSONStatus(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// pickPortBlock finds a base port with n consecutive free ports — the
// layout childSpecs assigns children into.
func pickPortBlock(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := l.Addr().(*net.TCPAddr).Port
		l.Close()
		ok := true
		for p := base; p < base+n; p++ {
			probe, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			probe.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("no free port block found")
	return 0
}
