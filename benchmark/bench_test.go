//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"incgraph"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// streamDigest hashes everything a run would feed the system for a seed:
// the graph file, the pattern file and the first POST bodies.
func streamDigest(t *testing.T, seed int64) string {
	t.Helper()
	w := smokeScale(workloads[1]) // burst: hosts sim, so a pattern is generated too
	in := makeInputs(w, seed)
	h := sha256.New()
	if _, err := in.graph.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if _, err := in.pattern.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Write(encodeBatch(in.stream.next(w.perPost)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	// The golden digest pins the generators: a change to them changes what
	// every recorded baseline was measured on.
	const golden = "54c7a16d1708ccb82423f534ddf44cce914ad9efe474da80abd23dad1fc4d553"
	got := streamDigest(t, 1)
	if got != golden {
		t.Errorf("seed 1 digest = %s, want %s", got, golden)
	}
	if again := streamDigest(t, 1); again != got {
		t.Errorf("same seed, different inputs: %s vs %s", got, again)
	}
	if other := streamDigest(t, 2); other == got {
		t.Errorf("seeds 1 and 2 generate identical inputs")
	}
}

func TestStreamKeepsTheMirrorValid(t *testing.T) {
	w := smokeScale(workloads[0])
	in := makeInputs(w, 7)
	shadow := in.graph.Clone()
	for i := 0; i < 200; i++ {
		b := in.stream.next(w.perPost)
		if applied := shadow.Apply(b); len(applied) != len(b) {
			t.Fatalf("batch %d: %d of %d updates were no-ops", i, len(b)-len(applied), len(b))
		}
	}
	if shadow.NumEdges() != in.stream.mirror.NumEdges() || len(in.stream.edges) != shadow.NumEdges() {
		t.Fatalf("mirror has %d edges, edge list %d, replay %d", in.stream.mirror.NumEdges(), len(in.stream.edges), shadow.NumEdges())
	}
	parsed, err := graph.ReadBatch(bytes.NewReader(encodeBatch(in.stream.next(w.perPost))))
	if err != nil || len(parsed) != w.perPost {
		t.Fatalf("encodeBatch does not round-trip through graph.ReadBatch: %d updates, err %v", len(parsed), err)
	}
}

// However long the stream runs, the graph stays the initial one less a
// small, changing set of edges: what a run measures does not depend on how
// many updates it got through.
func TestStreamStaysNearTheInitialGraph(t *testing.T) {
	w := smokeScale(workloads[3])
	in := makeInputs(w, 11)
	for i := 0; i < 3000; i++ {
		in.stream.next(w.perPost)
	}
	foreign := 0
	in.stream.mirror.Edges(func(u, v graph.NodeID, weight int64) {
		if !in.graph.HasEdge(u, v) || in.graph.Weight(u, v) != weight {
			foreign++
		}
	})
	missing := in.graph.NumEdges() - (in.stream.mirror.NumEdges() - foreign)
	if limit := in.graph.NumEdges() / 5; foreign > limit || missing > limit {
		t.Fatalf("after %d updates on %d edges: %d edges the initial graph lacks, %d of its edges missing",
			in.stream.units, in.graph.NumEdges(), foreign, missing)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 2}, 2}, // the median of three
		{[]float64{0.14, 0.2, 0.14, 0.2, 0.14}, (0.14 + 0.14 + 0.2) / 3},    // moves with the mix,
		{[]float64{0.2, 0.2, 0.14, 0.2, 0.14}, (0.14 + 0.2 + 0.2) / 3},      // where the median jumps
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 100}, (3 + 4 + 5 + 6 + 7) / 5.0}, // and an outlier is dropped
	} {
		if got := midmean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midmean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.5); !near(got, 3) {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.95); !near(got, 3.85) {
		t.Errorf("p95 of 1..4 = %v, want 3.85", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := relIQR(ten); !near(got, 1) {
		t.Errorf("relIQR of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: both clamp to the ends.
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of 1, 2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := derivedBound(0.01); !near(got, 0.10) {
		t.Errorf("derivedBound(1%%) = %v, want the 10%% floor", got)
	}
	if got := derivedBound(0.06); !near(got, 0.18) {
		t.Errorf("derivedBound(6%%) = %v, want 18%%", got)
	}
}

// fakeServeable records which of its methods were called.
type fakeServeable struct {
	calls []string
}

func (f *fakeServeable) note(s string)       { f.calls = append(f.calls, s) }
func (f *fakeServeable) Algo() string        { return "fake" }
func (f *fakeServeable) Graph() *graph.Graph { f.note("Graph"); return nil }
func (f *fakeServeable) Apply(incgraph.Batch) incgraph.ServeApplyResult {
	f.note("Apply")
	return incgraph.ServeApplyResult{Affected: 3, HasLedger: true, Ledger: fixpoint.WorkLedger{Delta: 2, Touched: 10}}
}
func (f *fakeServeable) Snapshot() any { f.note("Snapshot"); return 42 }
func (f *fakeServeable) PersistState(io.Writer) error {
	f.note("PersistState")
	return io.ErrShortWrite
}
func (f *fakeServeable) RestoreState(io.Reader) error {
	f.note("RestoreState")
	return io.ErrUnexpectedEOF
}
func (f *fakeServeable) Recompute() { f.note("Recompute") }

// fullFake also has every optional extension the host looks for.
type fullFake struct{ fakeServeable }

func (f *fullFake) SetTracer(fixpoint.Tracer)   { f.note("SetTracer") }
func (f *fullFake) SetWorkers(int)              { f.note("SetWorkers") }
func (f *fullFake) SetCompactThreshold(float64) { f.note("SetCompactThreshold") }
func (f *fullFake) ParStats() fixpoint.ParStats {
	f.note("ParStats")
	return fixpoint.ParStats{Workers: 4}
}

func TestDecoratorForwardsEveryInterface(t *testing.T) {
	tr := newTracer()
	tr.rec.on.Store(true)
	inner := &fullFake{}
	var s incgraph.Serveable = tr.wrap(inner, "@s1", "serve.http_update@s1")

	if s.Algo() != "fake" {
		t.Errorf("Algo not forwarded")
	}
	s.Graph()
	if res := s.Apply(nil); res.Affected != 3 {
		t.Errorf("Apply result not passed back: %+v", res)
	}
	if s.Snapshot() != 42 {
		t.Errorf("Snapshot result not passed back")
	}
	if err := s.PersistState(io.Discard); err != io.ErrShortWrite {
		t.Errorf("PersistState error not passed back: %v", err)
	}
	if err := s.RestoreState(nil); err != io.ErrUnexpectedEOF {
		t.Errorf("RestoreState error not passed back: %v", err)
	}
	s.Recompute()
	// The host finds these by type assertion on the value it was handed.
	s.(interface{ SetTracer(fixpoint.Tracer) }).SetTracer(nil)
	s.(interface{ SetWorkers(int) }).SetWorkers(2)
	s.(interface{ SetCompactThreshold(float64) }).SetCompactThreshold(0.5)
	if ps := s.(interface{ ParStats() fixpoint.ParStats }).ParStats(); ps.Workers != 4 {
		t.Errorf("ParStats not forwarded: %+v", ps)
	}
	want := "Graph Apply Snapshot PersistState RestoreState Recompute SetTracer SetWorkers SetCompactThreshold ParStats"
	if got := strings.Join(inner.calls, " "); got != want {
		t.Errorf("calls reaching the maintainer:\n got %s\nwant %s", got, want)
	}

	var names []string
	for _, sp := range tr.rec.snapshot() {
		names = append(names, sp.name+"<"+sp.parent)
	}
	wantSpans := "engine.apply.fake@s1<serve.host.fake@s1 serve.snapshot.fake@s1<serve.host.fake@s1 " +
		"serve.persist_state.fake@s1<wal.ingest@s1 engine.recompute.fake@s1<"
	if got := strings.Join(names, " "); got != wantSpans {
		t.Errorf("spans:\n got %s\nwant %s", got, wantSpans)
	}
	if st := tr.algo["fake"]; st == nil || st.work != 10 || st.delta != 2 {
		t.Errorf("ledger not accumulated: %+v", st)
	}

	// A maintainer without the extensions: the decorator still offers them
	// and they do nothing.
	bare := &fakeServeable{}
	b := tr.wrap(bare, "", "serve.http_update")
	b.SetTracer(nil)
	b.SetWorkers(2)
	b.SetCompactThreshold(0.5)
	if ps := b.ParStats(); ps != (fixpoint.ParStats{}) {
		t.Errorf("ParStats of a maintainer without it = %+v, want zero", ps)
	}
	if len(bare.calls) != 0 {
		t.Errorf("extension calls reached a maintainer that lacks them: %v", bare.calls)
	}
}

func TestBudgetChargesTheDeepestActiveSpan(t *testing.T) {
	spans := []span{
		{name: "client.update", kind: "update", op: 1, start: 0, end: 100},
		{name: "serve.http_update", parent: "client.update", kind: "update", op: 1, start: 10, end: 90},
		// Two hosts overlapping between 40 and 50: wall time is charged once.
		{name: "serve.host.a", parent: "serve.http_update", kind: "update", op: 1, start: 20, end: 50},
		{name: "engine.apply.a", parent: "serve.host.a", kind: "update", op: 1, start: 25, end: 45},
		{name: "serve.host.b", parent: "serve.http_update", kind: "update", op: 1, start: 40, end: 80},
		{name: "engine.apply.b", parent: "serve.host.b", kind: "update", op: 1, start: 60, end: 70},
		// Another op and another kind must not leak in.
		{name: "client.update", kind: "update", op: 2, start: 200, end: 230},
		{name: "client.query", kind: "query", op: 1, start: 0, end: 500},
		// A server-side span of an op that has no root is dropped.
		{name: "serve.http_update", parent: "client.update", kind: "update", op: 3, start: 300, end: 310},
	}
	bs := budgets(spans, "update")
	if len(bs) != 2 {
		t.Fatalf("%d budgets, want 2", len(bs))
	}
	b := bs[0]
	want := map[string]int64{"client": 20, "engine": 30, "serve": 50}
	var sum int64
	for l, ns := range b.layers {
		sum += ns
		if want[l] != ns {
			t.Errorf("layer %s = %d, want %d", l, ns, want[l])
		}
	}
	if sum != b.total || b.total != 100 {
		t.Errorf("layers sum to %d, total %d, want both 100", sum, b.total)
	}
	if bs[1].total != 30 || bs[1].layers["client"] != 30 {
		t.Errorf("op 2 = %+v, want 30 ns of client", bs[1])
	}
}

// smokeRun is one traced run of w at smoke scale with a fixed op count.
func smokeRun(t *testing.T, w workload) map[string]metricValue {
	t.Helper()
	e := env{ctx: context.Background(), r: &runner{procs: newProcs(), workDir: t.TempDir()}}
	line, report, err := e.tracedRun(options{seconds: 60, ops: 16, trace: 1}, smokeScale(w), 5)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Fatalf("%s: incorrect traced run:\n%s", w.name, report)
	}
	return line.Metrics
}

func TestSmokeTracedRunsRepeatTheirCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("hosts every workload in-process twice")
	}
	for _, w := range workloads {
		a, b := smokeRun(t, w), smokeRun(t, w)
		for _, d := range perLayer {
			if _, ok := a[d.name]; !ok {
				t.Errorf("%s: metric %s missing from the result", w.name, d.name)
			}
			// Ledger and exchange-round counts are exact: with a fixed op
			// count two runs of one seed must report the same numbers.
			if strings.HasSuffix(d.name, ".work_per_delta") || d.name == "shard.exchange_rounds" || d.name == "wal.replayed_records" {
				if a[d.name].Value != b[d.name].Value {
					t.Errorf("%s: %s = %v then %v, want identical", w.name, d.name, a[d.name].Value, b[d.name].Value)
				}
			}
		}
		for _, algo := range w.algos {
			if a["engine."+algo+".work_per_delta"].Value <= 0 {
				t.Errorf("%s: no work ledger for %s", w.name, algo)
			}
		}
		// The budget rows and the unattributed remainder sum to the traced
		// medians.
		var rows float64
		for _, op := range []string{"update", "query"} {
			for _, l := range budgetLayers {
				rows += a["budget."+op+"."+l+"_ms"].Value
			}
		}
		total := a["trace.update_p50_ms"].Value + a["trace.query_p50_ms"].Value
		if got := rows + a["trace.unattributed_ms"].Value; math.Abs(got-total) > 0.01*total {
			t.Errorf("%s: budget rows + unattributed = %.4f ms, traced medians = %.4f ms", w.name, got, total)
		}
		if (a["wal.append_us"].Value > 0) != (w.fsync != "") {
			t.Errorf("%s: wal.append_us = %v, want it present exactly on the WAL workloads", w.name, a["wal.append_us"].Value)
		}
		if (a["shard.exchange_rounds"].Value > 0) != (w.shards > 0) {
			t.Errorf("%s: shard.exchange_rounds = %v, want it present exactly on the cluster", w.name, a["shard.exchange_rounds"].Value)
		}
	}
}

func TestBenchmarkJSONListsTheSameMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q (%q), the benchmark has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: listed %+v, the benchmark has %+v", kind, i, m, d)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, d.name)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, d.name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, *m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the 16/128 limits", len(endToEnd), len(perLayer))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// A slowdown of the host that hits the system and the reference server
// alike, however it changes from window to window, leaves every reported
// load metric where it was.
func TestNormaliseCancelsAHostFactor(t *testing.T) {
	nominal := map[string]float64{"update_p50_ms": 2, "query_p50_ms": 3, "updates_per_s": 1000, "cpu_ms_per_op": 0.5}
	run := func(host []float64) map[string]float64 { // host[i]: the factor during reference window i and system window i
		var sut, ref []map[string]float64
		for i, f := range host {
			ref = append(ref, map[string]float64{"update_p50_ms": 4 * f, "query_p50_ms": 6 * f, "updates_per_s": 2000 / f, "cpu_ms_per_op": 1 * f})
			if i > 0 {
				// a system window sits between two reference windows: times
				// stretch by the mean of their factors, rates shrink likewise
				g, h := (host[i-1]+f)/2, (1/host[i-1]+1/f)/2
				sut = append(sut, map[string]float64{"update_p50_ms": 8 * g, "query_p50_ms": 3 * g, "cpu_ms_per_op": 4 * g, "updates_per_s": 500 * h, "steal": 0.01})
			}
		}
		res := e2eResult{metrics: map[string]float64{}}
		normalise(&res, nominal, sut, ref)
		return res.metrics
	}
	quiet := run([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	want := map[string]float64{"update_p50_ms": 4, "query_p50_ms": 1.5, "updates_per_s": 250, "cpu_ms_per_op": 2}
	for name, v := range want {
		if math.Abs(quiet[name]-v) > 1e-9 {
			t.Errorf("quiet host: %s = %g, want %g", name, quiet[name], v)
		}
	}
	noisy := run([]float64{1, 1.3, 1.3, 0.9, 2.5, 1, 1.1, 1.4, 1.4})
	for name, v := range want {
		if math.Abs(noisy[name]-v) > 1e-9 {
			t.Errorf("noisy host: %s = %g, want %g", name, noisy[name], v)
		}
	}
}

// The reference search scans what it was asked to and is a function of
// nothing but its sizes.
func TestRefSearchIsFixedWork(t *testing.T) {
	a, b := newRefGraph(500, 6), newRefGraph(500, 6)
	for i := 0; i < 5; i++ {
		la, lb := a.search(4000), b.search(4000)
		if len(la) == 0 || len(la) != len(lb) {
			t.Fatalf("search %d: %d and %d levels", i, len(la), len(lb))
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("search %d differs at level %d", i, j)
			}
		}
	}
}
