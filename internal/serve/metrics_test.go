package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
)

// promValue extracts the value of the first sample matching the series
// prefix (metric name + label block) from an exposition body.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(ln, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// TestMetricsEndToEnd drives a two-host service over HTTP and scrapes
// GET /metrics: the exposition must be valid Prometheus text format and
// carry the apply-latency quantiles, the live boundedness ratio, and the
// per-algo coalescing counters the acceptance criteria name.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newTestService(t)

	// One batch: a churn pair (the insert cancels, leaving the delete —
	// the coalescer cannot know edge 4-5 never existed), a fresh insert,
	// and a deletion of a real edge so h has revision work to do. Raw 4
	// updates, net 3, coalesced 1.
	code, body := postUpdate(t, ts.URL+"/update?wait=1", "+ 2 3 1\n+ 4 5 9\n- 4 5\n- 1 2\n")
	if code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	expo := string(raw)

	// Every sample line must parse.
	for _, ln := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(ln) {
			t.Fatalf("invalid exposition line: %q", ln)
		}
	}

	// Apply-latency quantiles per algo.
	for _, algo := range []string{"cc", "sssp"} {
		for _, q := range []string{"0.5", "0.95", "0.99", "1"} {
			v := promValue(t, expo, `incgraph_apply_latency_seconds{algo="`+algo+`",quantile="`+q+`"}`)
			if v <= 0 {
				t.Errorf("%s p%s apply latency = %g, want > 0", algo, q, v)
			}
		}
		if n := promValue(t, expo, `incgraph_apply_latency_seconds_count{algo="`+algo+`"}`); n != 1 {
			t.Errorf("%s apply count %g, want 1", algo, n)
		}
	}
	// The stream's series are one each, with no algo label: the churn
	// pair's insert shows up as one coalesced update, not one per class.
	for series, want := range map[string]float64{
		`incgraph_updates_received_total`:   4,
		`incgraph_updates_applied_total`:    4,
		`incgraph_updates_coalesced_total`:  1,
		`incgraph_batches_applied_total`:    1,
		`incgraph_queue_depth`:              0,
		`incgraph_batch_size_updates_count`: 1,
	} {
		if v := promValue(t, expo, series); v != want {
			t.Errorf("%s = %g, want %g", series, v, want)
		}
	}
	if r := promValue(t, expo, `incgraph_coalesce_ratio{quantile="0.5"}`); r < 0.2 || r > 0.3 {
		t.Errorf("coalesce ratio %g, want ~1/4", r)
	}
	for _, family := range []string{"incgraph_updates_received_total", "incgraph_updates_applied_total",
		"incgraph_updates_coalesced_total", "incgraph_batches_applied_total", "incgraph_batch_size_updates",
		"incgraph_coalesce_ratio", "incgraph_apply_flushes_total", "incgraph_queue_depth", "incgraph_graph_nodes",
		"incgraph_flat_compactions_total", "incgraph_flat_overlay_ratio"} {
		if strings.Contains(expo, family+`{algo=`) {
			t.Errorf("stream or store series %s carries an algo label", family)
		}
	}

	// The boundedness-ratio gauge: the deletion of edge 1-2 forces h to
	// revise, so |AFF| and the ratio must be positive.
	if v := promValue(t, expo, `incgraph_aff_per_delta_ratio{algo="cc"}`); v <= 0 {
		t.Errorf("cc aff/delta ratio = %g, want > 0", v)
	}
	if v := promValue(t, expo, `incgraph_fixpoint_inspected_total{algo="cc"}`); v <= 0 {
		t.Errorf("cc inspected total = %g, want > 0", v)
	}
	if v := promValue(t, expo, `incgraph_uptime_seconds`); v <= 0 {
		t.Errorf("uptime = %g, want > 0", v)
	}
	if v := promValue(t, expo, `incgraph_graph_nodes`); v != 6 {
		t.Errorf("graph nodes = %g, want 6", v)
	}
	// The one adjacency both classes read, built edge by edge from New:
	// row 1 moved to the end of the arrays for its second entry, and the
	// insert moves row 2 for its second, so the rows take four slots
	// beyond a fresh layout's once the delete frees one in rows 1 and 2,
	// against four live entries — past the 0.25 threshold, so the apply
	// compacted once and left no dead space (the end of the test makes
	// another).
	flat := func(expo string, compactions float64) {
		t.Helper()
		if c := promValue(t, expo, `incgraph_flat_compactions_total`); c != compactions {
			t.Errorf("flat compactions %g, want %g", c, compactions)
		}
		if r := promValue(t, expo, `incgraph_flat_overlay_ratio`); r != 0 {
			t.Errorf("flat dead space %g after %g compactions, want 0", r, compactions)
		}
	}
	flat(expo, 1)
	// The retired parallel mode left no series behind.
	for _, name := range []string{"incgraph_fixpoint_workers", "incgraph_par_rounds_total",
		"incgraph_par_seq_rounds_total", "incgraph_worker_utilization", "incgraph_worker_imbalance"} {
		if strings.Contains(expo, name) {
			t.Errorf("retired series %s is still exposed", name)
		}
	}

	// Publication: the six-node views are one page each, the batch
	// changed both answers (3 joins 0's component and comes into reach, 2
	// is cut off), so each publish copied that page; nobody has read a
	// view yet, so nothing has been encoded.
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	for _, algo := range []string{"cc", "sssp"} {
		if c := promValue(t, expo, `incgraph_view_pages_copied_total{algo="`+algo+`"}`); c != 1 {
			t.Errorf("%s pages copied %g, want 1", algo, c)
		}
		if p := promValue(t, expo, `incgraph_view_pages{algo="`+algo+`"}`); p != 1 {
			t.Errorf("%s view pages %g, want 1", algo, p)
		}
		if e := promValue(t, expo, `incgraph_view_pages_encoded_total{algo="`+algo+`"}`); e != 0 {
			t.Errorf("%s pages encoded %g before any read", algo, e)
		}
		// The first GET encodes the page; the next ones find it cached,
		// ?compact=1 (which used to name a second form) included.
		for i, q := range []string{"", "", "?compact=1"} {
			resp, err := http.Get(ts.URL + "/query/" + algo + q)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if e := promValue(t, scrape(), `incgraph_view_pages_encoded_total{algo="`+algo+`"}`); e != 1 {
				t.Errorf("%s pages encoded after GET %d (%q) = %g, want 1", algo, i+1, q, e)
			}
		}
	}
	// The POST found an idle loop, so its one batch was closed by the
	// empty queue; the other reasons are exported at 0.
	for reason, want := range map[string]float64{"drain": 1, "full": 0, "timer": 0, "state": 0, "close": 0} {
		if v := promValue(t, expo, `incgraph_apply_flushes_total{reason="`+reason+`"}`); v != want {
			t.Errorf("flushes by %s = %g, want %g", reason, v, want)
		}
	}
	for _, algo := range []string{"cc", "sssp"} {
		if v := promValue(t, expo, `incgraph_view_entries_spliced_total{algo="`+algo+`"}`); v != 0 {
			t.Errorf("%s entries spliced %g before any read", algo, v)
		}
	}
	// Both views are cached now. An update that changes both answers again
	// (edge 1-2 comes back) replaces the page with one born cached: its
	// changed entries are spliced into the cached bytes, and reading it
	// encodes nothing.
	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "+ 1 2 1\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}
	var stats map[string]Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		resp, err := http.Get(ts.URL + "/query/" + algo)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		expo := scrape()
		if e := promValue(t, expo, `incgraph_view_pages_encoded_total{algo="`+algo+`"}`); e != 1 {
			t.Errorf("%s pages encoded %g after reading a page born cached, want the 1 of before", algo, e)
		}
		spliced := promValue(t, expo, `incgraph_view_entries_spliced_total{algo="`+algo+`"}`)
		if spliced <= 0 || spliced > 6 || uint64(spliced) != stats[algo].EntriesSpliced {
			t.Errorf("%s entries spliced %g (stats: %d), want the changed entries of one 6-entry page", algo, spliced, stats[algo].EntriesSpliced)
		}
	}
	// /debug/boundedness reports the serving layer's ratio beside the
	// engine's: six entries copied per update that changed an answer.
	var reports map[string]BoundednessReport
	if code := getJSON(t, ts.URL+"/debug/boundedness", &reports); code != http.StatusOK {
		t.Fatalf("debug/boundedness status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		rep := reports[algo]
		if rep.EntriesCopied != 12 || rep.PublishRatio != 3 || rep.BoundedRatio <= 0 {
			t.Errorf("%s boundedness report: entries copied %d, publish ratio %g, bounded ratio %g; want 12, 3, > 0",
				algo, rep.EntriesCopied, rep.PublishRatio, rep.BoundedRatio)
		}
	}
	// Deleting 0-1 and 1-2 as well leaves two live half-edges (per
	// direction) where a fresh layout would hold them and a free slot per
	// row in two slots fewer: dead space 2/3 of the live entries, far past
	// the 0.25 threshold, so that apply compacts once more and leaves
	// none.
	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "- 0 1\n- 1 2\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}
	flat(scrape(), 2)
}

// TestDebugApplies checks the recent-applies trace ring over HTTP: the
// per-batch record of |ΔG| raw/net, |AFF|, and the latency split.
func TestDebugApplies(t *testing.T) {
	svc, ts := newTestService(t)

	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "+ 2 3 1\n+ 4 5 9\n- 4 5\n- 1 2\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}

	var applies map[string][]ApplyTrace
	if code := getJSON(t, ts.URL+"/debug/applies", &applies); code != http.StatusOK {
		t.Fatalf("debug/applies status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		trs := applies[algo]
		if len(trs) != 1 {
			t.Fatalf("%s: %d traces, want 1: %+v", algo, len(trs), trs)
		}
		tr := trs[0]
		if tr.Algo != algo || tr.Epoch != 4 || tr.Batch != 1 {
			t.Errorf("%s: trace header %+v", algo, tr)
		}
		if tr.RawUpdates != 4 || tr.NetUpdates != 3 {
			t.Errorf("%s: raw/net %d/%d, want 4/3", algo, tr.RawUpdates, tr.NetUpdates)
		}
		if tr.ApplyNanos <= 0 || tr.QueueWaitNanos < 0 || tr.UnixNanos <= 0 {
			t.Errorf("%s: timings %+v", algo, tr)
		}
		if tr.PagesCopied != 1 || tr.PagesTotal != 1 {
			t.Errorf("%s: published %d of %d pages, want 1 of 1", algo, tr.PagesCopied, tr.PagesTotal)
		}
		if tr.FlushReason != "drain" {
			t.Errorf("%s: flush reason %q on an idle host, want drain", algo, tr.FlushReason)
		}
	}
	// CC runs on the fixpoint engine: the trace must carry its counters.
	if cc := applies["cc"][0]; cc.Inspected <= 0 {
		t.Errorf("cc trace lost the fixpoint counters: %+v", cc)
	}

	// Filtering by algo, and rejecting unknown algos.
	var one map[string][]ApplyTrace
	if code := getJSON(t, ts.URL+"/debug/applies?algo=cc", &one); code != http.StatusOK {
		t.Fatalf("filtered debug/applies status %d", code)
	}
	if len(one) != 1 || len(one["cc"]) != 1 {
		t.Fatalf("filtered applies %+v", one)
	}
	resp, err := http.Get(ts.URL + "/debug/applies?algo=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown algo status %d", resp.StatusCode)
	}
	_ = svc
}

// TestStatsDerivedFields checks the /stats satellite: uptime, mean apply
// latency, and the propagated fixpoint counters are reported, not left
// for clients to derive from raw totals.
func TestStatsDerivedFields(t *testing.T) {
	_, ts := newTestService(t)
	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "+ 2 3 1\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}
	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "- 2 3\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}

	var stats map[string]Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		st := stats[algo]
		if st.UptimeSeconds <= 0 {
			t.Errorf("%s: uptime %g", algo, st.UptimeSeconds)
		}
		if st.BatchesApplied == 0 || st.MeanApplyNanos != st.TotalApplyNanos/int64(st.BatchesApplied) {
			t.Errorf("%s: mean %d, total %d over %d batches", algo, st.MeanApplyNanos, st.TotalApplyNanos, st.BatchesApplied)
		}
		if st.QueueDepth != 0 {
			t.Errorf("%s: queue depth %d after wait=1", algo, st.QueueDepth)
		}
		// Engine-based maintainers propagate their cost counters; the
		// deletion forces h to actually inspect something.
		if st.Fixpoint.Inspected() <= 0 {
			t.Errorf("%s: fixpoint counters not propagated: %+v", algo, st.Fixpoint)
		}
	}
}

// TestStatsMeanAfterRecovery: a service resumed at a recovered stream
// position that has applied one batch since reports that batch's latency
// as its mean, not the latency spread over the batches of every earlier
// process, while its stream fields continue from the position.
func TestStatsMeanAfterRecovery(t *testing.T) {
	s, _ := soloHost(t, CC(cc.NewInc(graph.New(6, false))), Options{BaseEpoch: 100000, BaseBatches: 1000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := submitWait(s, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	var stats map[string]Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	st := stats["cc"]
	if st.TotalApplyNanos <= 0 || st.MeanApplyNanos != st.TotalApplyNanos {
		t.Errorf("one apply of %d ns reported as a mean of %d ns", st.TotalApplyNanos, st.MeanApplyNanos)
	}
	if st.Epoch != 100001 || st.UpdatesReceived != 100001 || st.UpdatesApplied != 100001 || st.BatchesApplied != 1001 || st.QueueDepth != 0 {
		t.Errorf("stream fields do not continue from the recovered position: %+v", st)
	}
}

// TestTraceRingBounded proves the per-host ring keeps only the last
// applyRing applies.
func TestTraceRingBounded(t *testing.T) {
	g := graph.New(4, false)
	s, h := soloHost(t, CC(cc.NewInc(g)), Options{MaxBatch: 1})
	const applies = applyRing + 2
	for i := 0; i < applies; i++ {
		b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}
		if i%2 == 1 {
			b = graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}}
		}
		if err := submitWait(s, b); err != nil {
			t.Fatal(err)
		}
	}
	trs := h.RecentApplies()
	if len(trs) != applyRing {
		t.Fatalf("ring kept %d traces, want %d", len(trs), applyRing)
	}
	if trs[len(trs)-1].Batch != applies {
		t.Fatalf("newest trace is batch %d, want %d", trs[len(trs)-1].Batch, applies)
	}
	for i := 1; i < len(trs); i++ {
		if trs[i].Batch != trs[i-1].Batch+1 {
			t.Fatalf("traces out of order: %+v", trs)
		}
	}
}
