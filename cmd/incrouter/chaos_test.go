package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/obs"
	"incgraph/internal/serve/faults"
	"incgraph/internal/shard"
)

// TestChaosDifferential is the cluster chaos-differential drill: real
// shard processes behind a router whose transport injects seeded
// network faults (delays, resets, truncated bodies, spurious 503s),
// plus one full partition (blackhole) and one kill -9 with replica
// promotion — while a structured update stream flows. The invariants:
//
//   - queries during the partition answer 200 with "degraded": true
//     partials (stale replica or missing shard, epoch vector exposing
//     the staleness), never a whole-query 5xx;
//   - updates during the partition shed 503 with a Retry-After hint,
//     and the same batches apply cleanly once connectivity returns
//     (full-batch retries are idempotent);
//   - after faults stop and the stream drains, every class's answers
//     equal a from-scratch recompute of exactly the acked stream;
//   - the retry/breaker/degraded counters surface in /cluster/metrics.
//
// The short PR-CI form runs a fixed number of rounds; set
// INCGRAPH_CHAOS_SECONDS to stretch the faulted-stream phase into a
// long-form campaign (nightly).
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}

	bin := t.TempDir() + "/incgraphd"
	if out, err := exec.Command("go", "build", "-o", bin, "incgraph/cmd/incgraphd").CombinedOutput(); err != nil {
		t.Fatalf("building incgraphd: %v\n%s", err, out)
	}

	const (
		nodes = 300
		deg   = 6
		seed  = 11
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
	events := obs.NewRing[shard.TopologyEvent](128)
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
	part, err := shard.NewPartitioner(info.Partitioner, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Every router→shard byte crosses the fault transport. The
	// supervisor probes through its own default client, so injected
	// faults degrade the data plane without faking topology changes —
	// the one real kill below is the only promotion trigger.
	ft := faults.NewTransport(faults.TransportOptions{
		Seed:         seed,
		DelayProb:    0.10,
		MaxDelay:     30 * time.Millisecond,
		ResetProb:    0.05,
		TruncateProb: 0.05,
		ShedProb:     0.05,
	})
	router, err := shard.NewRouter(shard.RouterOptions{
		Part: part, Table: table, Directed: true, NumNodes: nodes,
		Events: events,
		Client: &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := router.Handler()

	oracle := incgraph.PowerLawGraph(seed, nodes, deg, true)
	streamSeed := int64(2000)
	nextBatch := func(count int) incgraph.Batch {
		streamSeed++
		return incgraph.RandomUpdates(streamSeed, oracle, count, 0.5)
	}
	post := func(b incgraph.Batch) (int, bool, string) {
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
		return w.Code, res.Applied, w.Header().Get("Retry-After")
	}
	// mustApply retries the whole batch until the router acks it applied
	// on every shard, then folds it into the oracle. Full-batch retries
	// are exact under faults because shard applies are idempotent.
	mustApply := func(b incgraph.Batch, deadline time.Duration) {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			code, applied, _ := post(b)
			if code == http.StatusOK && applied {
				oracle.Apply(b)
				return
			}
			if time.Now().After(end) {
				t.Fatalf("batch never applied (last status %d)", code)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	type queryRes struct {
		Consistent bool `json:"consistent"`
		Degraded   bool `json:"degraded"`
		Epochs     []uint64
		Shards     []shard.QueryShard `json:"shards"`
		Data       struct {
			Dist   []int64 `json:"dist"`
			Labels []int64 `json:"labels"`
		} `json:"data"`
	}
	query := func(algo string) (int, queryRes) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/query/"+algo, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var q queryRes
		json.Unmarshal(w.Body.Bytes(), &q)
		return w.Code, q
	}

	// Phase A: stream under background network faults. Short form runs a
	// few rounds; INCGRAPH_CHAOS_SECONDS stretches this phase.
	rounds, phaseEnd := 3, time.Time{}
	if s := os.Getenv("INCGRAPH_CHAOS_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad INCGRAPH_CHAOS_SECONDS %q", s)
		}
		rounds, phaseEnd = 1<<30, time.Now().Add(time.Duration(secs)*time.Second)
	}
	for i := 0; i < rounds; i++ {
		mustApply(nextBatch(30), 60*time.Second)
		if i%4 == 3 {
			if code, _ := query("sssp"); code != http.StatusOK {
				t.Fatalf("query under faults: %d", code)
			}
		}
		if !phaseEnd.IsZero() && time.Now().After(phaseEnd) {
			break
		}
	}

	// Phase B: full partition of shard 1's primary. Queries must degrade
	// to 200 partials (shard 1 answered stale by its replica, missing
	// with epoch 0, or lost to the exchange after its view was fetched),
	// never a whole-query failure; updates must shed 503
	// with a Retry-After hint once the breaker opens.
	primary1Host := strings.TrimPrefix(primaries[1], "http://")
	ft.Blackhole(primary1Host, true)
	degradeEnd := time.Now().Add(30 * time.Second)
	for {
		code, q := query("sssp")
		if code != http.StatusOK {
			t.Fatalf("query during partition: %d (want 200 degraded partial)", code)
		}
		if q.Degraded {
			if len(q.Shards) != 2 {
				t.Fatalf("degraded answer carries %d shard statuses, want 2", len(q.Shards))
			}
			st := q.Shards[1].Status
			if st != "stale-replica" && st != "missing" && st != "hedged" && st != "exchange-lost" {
				t.Fatalf("partitioned shard status %q", st)
			}
			if st == "missing" && q.Epochs[1] != 0 {
				t.Fatalf("missing shard epoch = %d, want 0", q.Epochs[1])
			}
			break
		}
		if time.Now().After(degradeEnd) {
			t.Fatal("queries never degraded during the partition")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Updates routed to the partitioned shard shed once its breaker is
	// open. The same batch must land cleanly after the partition heals.
	heldBack := nextBatch(30)
	shedEnd := time.Now().Add(30 * time.Second)
	for {
		code, applied, retryAfter := post(heldBack)
		if applied {
			// Every sub-batch happened to land (breaker probe slipped
			// through); treat as acked and move on.
			oracle.Apply(heldBack)
			heldBack = nil
			break
		}
		if code == http.StatusServiceUnavailable {
			if retryAfter == "" {
				t.Fatal("503 shed without a Retry-After hint")
			}
			break
		}
		if time.Now().After(shedEnd) {
			t.Fatalf("updates never shed during the partition (last status %d)", code)
		}
		time.Sleep(50 * time.Millisecond)
	}
	ft.Blackhole(primary1Host, false)
	if heldBack != nil {
		mustApply(heldBack, 60*time.Second) // breaker half-opens, probe succeeds, closes
	}
	mustApply(nextBatch(30), 60*time.Second)

	// Phase C: quiesce shard 0's replication, then kill -9 its primary
	// and wait for the supervisor to promote the replica.
	replica0 := table.Replica(0)
	if replica0 == "" {
		t.Fatal("no replica registered for shard 0")
	}
	waitCaughtUp(t, primaries[0], replica0, 30*time.Second)
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

	// Phase D: keep streaming through the promoted member under faults,
	// then lift all faults, drain, and check recompute equality.
	for i := 0; i < 2; i++ {
		mustApply(nextBatch(30), 120*time.Second)
	}
	ft.SetEnabled(false)

	wantDist := incgraph.SSSP(oracle, 0)
	wantLabels := incgraph.ConnectedComponents(oracle)
	finalEnd := time.Now().Add(60 * time.Second)
	for {
		code, qs := query("sssp")
		code2, qc := query("cc")
		if code == http.StatusOK && code2 == http.StatusOK &&
			qs.Consistent && qc.Consistent && !qs.Degraded && !qc.Degraded {
			for v := range wantDist {
				if qs.Data.Dist[v] != wantDist[v] {
					t.Fatalf("dist[%d] = %d, want %d", v, qs.Data.Dist[v], wantDist[v])
				}
			}
			for v := range wantLabels {
				if qc.Data.Labels[v] != wantLabels[v] {
					t.Fatalf("label[%d] = %d, want %d", v, qc.Data.Labels[v], wantLabels[v])
				}
			}
			break
		}
		if time.Now().After(finalEnd) {
			t.Fatalf("cluster never converged: sssp %d consistent=%v degraded=%v, cc %d consistent=%v degraded=%v",
				code, qs.Consistent, qs.Degraded, code2, qc.Consistent, qc.Degraded)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// The campaign actually exercised the fault plane and the breaker,
	// and the resilience counters surface in the federated exposition.
	if ft.Stats().Total() == 0 {
		t.Fatal("fault transport injected nothing")
	}
	var promotes int
	for _, ev := range events.Snapshot() {
		if ev.Kind == "promote" {
			promotes++
		}
	}
	if promotes == 0 {
		t.Fatal("no promote event recorded")
	}
	req := httptest.NewRequest(http.MethodGet, "/cluster/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("cluster metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, name := range []string{
		"incrouter_retries_total",
		"incrouter_breaker_opens_total",
		"incrouter_breaker_state",
		"incrouter_deadline_exceeded_total",
		"incrouter_degraded_queries_total",
		"incrouter_stale_replica_reads_total",
		"incrouter_hedged_reads_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("cluster metrics missing %s", name)
		}
	}
	mustPositive := func(name string) {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name) && !strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
					return
				}
			}
		}
		t.Fatalf("expected %s > 0 after the campaign:\n%s", name, body)
	}
	mustPositive("incrouter_retries_total")
	mustPositive("incrouter_breaker_opens_total")
	mustPositive("incrouter_degraded_queries_total")
}
