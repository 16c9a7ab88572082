package serve

import (
	"math"
	"net/http"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// checkLedger asserts the invariants every adapter's per-apply ledger
// must satisfy: one run, |ΔG| = the batch size, the recompute estimate
// anchored to the current graph, and the Work algebra.
func checkLedger(t *testing.T, algo string, res ApplyResult, g *graph.Graph, batchLen int) {
	t.Helper()
	if !res.HasLedger {
		t.Fatalf("%s: adapter reported no ledger", algo)
	}
	led := res.Ledger
	if led.Runs != 1 {
		t.Errorf("%s: Runs = %d, want 1", algo, led.Runs)
	}
	if led.Delta != int64(batchLen) {
		t.Errorf("%s: Delta = %d, want %d", algo, led.Delta, batchLen)
	}
	if want := int64(g.NumNodes() + g.NumEdges()); led.RecomputeEst != want {
		t.Errorf("%s: RecomputeEst = %d, want %d", algo, led.RecomputeEst, want)
	}
	if led.Changed > led.Aff {
		t.Errorf("%s: Changed %d exceeds Aff %d", algo, led.Changed, led.Aff)
	}
	if w := led.Work(); w != led.Touched+led.Aff+led.AffEdges {
		t.Errorf("%s: Work = %d", algo, w)
	}
	for name, v := range map[string]float64{
		"bounded":   led.BoundedRatio(),
		"recompute": led.RecomputeRatio(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s ratio is %v", algo, name, v)
		}
	}
}

// TestAdapterLedgersAllClasses drives every class adapter through one
// Apply and checks the work ledger each reports: the engine-backed
// classes (SSSP, CC, Sim) surface the engine's schedule-independent
// counters, the specialized classes (DFS, LCC, BC) their own count of what
// they recomputed and what changed.
func TestAdapterLedgersAllClasses(t *testing.T) {
	undirected := func() *graph.Graph {
		g := graph.New(6, false)
		g.InsertEdge(0, 1, 2)
		g.InsertEdge(1, 2, 2)
		g.InsertEdge(2, 3, 1)
		g.InsertEdge(3, 4, 1)
		return g
	}
	directed := func() *graph.Graph {
		g := graph.New(6, true)
		g.InsertEdge(0, 1, 1)
		g.InsertEdge(1, 2, 1)
		g.InsertEdge(2, 3, 1)
		return g
	}
	batch := graph.Batch{
		{Kind: graph.InsertEdge, From: 0, To: 4, W: 1},
		{Kind: graph.InsertEdge, From: 4, To: 5, W: 1},
	}

	t.Run("sssp", func(t *testing.T) {
		g := undirected()
		s := SSSP(sssp.NewInc(g, 0), 0)
		res := s.Apply(batch)
		checkLedger(t, "sssp", res, g, len(batch))
		if res.Ledger.Changed == 0 {
			t.Error("sssp: shortening inserts must change distances")
		}
	})
	t.Run("cc", func(t *testing.T) {
		g := undirected()
		s := CC(cc.NewInc(g))
		res := s.Apply(batch)
		checkLedger(t, "cc", res, g, len(batch))
		if res.Ledger.Aff == 0 {
			t.Error("cc: connecting node 5 must affect labels")
		}
	})
	t.Run("sim", func(t *testing.T) {
		g := directed()
		g.SetLabel(0, 'a')
		g.SetLabel(1, 'b')
		q := graph.New(2, true)
		q.SetLabel(0, 'a')
		q.SetLabel(1, 'b')
		q.InsertEdge(0, 1, 1)
		s := Sim(sim.NewInc(g, q))
		res := s.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}})
		checkLedger(t, "sim", res, g, 1)
	})
	t.Run("dfs", func(t *testing.T) {
		g := directed()
		s := DFS(dfs.NewInc(g))
		res := s.Apply(batch)
		checkLedger(t, "dfs", res, g, len(batch))
		// The path 0→1→2→3 is replayed from just after node 0's visit: 1, 2
		// and 3 come out as they were, 4 and 5 move under 0, and 0, still
		// open, gets a later last. Rows enumerated: 0's two entries and one
		// each for 1, 2 and 4.
		if led := res.Ledger; led.Touched != 2 || led.Aff != 6 || led.AffEdges != 5 || led.Changed != 3 || res.Affected != 5 || !res.HasStats {
			t.Errorf("dfs: touched/aff/aff_edges/changed = %d/%d/%d/%d, affected %d, stats %v; want 2/6/5/3, 5, true",
				led.Touched, led.Aff, led.AffEdges, led.Changed, res.Affected, res.HasStats)
		}
	})
	t.Run("lcc", func(t *testing.T) {
		g := undirected()
		s := LCC(lcc.NewInc(g))
		res := s.Apply(batch)
		checkLedger(t, "lcc", res, g, len(batch))
		// Both inserts apply; no two of their endpoints 0, 4, 5 share a
		// neighbor, so those three are recounted, and each gained a degree.
		if led := res.Ledger; led.Touched != 2 || led.Aff != 3 || led.Changed != 3 || res.Affected != 3 || !res.HasStats {
			t.Errorf("lcc: touched/aff/changed = %d/%d/%d, affected %d, stats %v; want 2/3/3, 3, true",
				led.Touched, led.Aff, led.Changed, res.Affected, res.HasStats)
		}
	})
	t.Run("bc", func(t *testing.T) {
		g := undirected()
		s := BC(bc.NewInc(g))
		res := s.Apply(batch)
		checkLedger(t, "bc", res, g, len(batch))
		// The path 0-1-2-3-4 closes into a cycle with 5 hanging off 4: all
		// six nodes are revisited over their 12 row entries, 1, 2 and 3 stop
		// being articulation points and 4 becomes one.
		if led := res.Ledger; led.Touched != 2 || led.Aff != 6 || led.AffEdges != 12 || led.Changed != 4 || res.Affected != 6 || !res.HasStats {
			t.Errorf("bc: touched/aff/aff_edges/changed = %d/%d/%d/%d, affected %d, stats %v; want 2/6/12/4, 6, true",
				led.Touched, led.Aff, led.AffEdges, led.Changed, res.Affected, res.HasStats)
		}
		if v := s.Snapshot().(BCView); v.NumComps != 2 {
			t.Errorf("bc: %d blocks published, want the cycle and the bridge", v.NumComps)
		}
	})
}

// TestHostAuditAggregation submits batches through a host and checks the
// audit plane end to end: Stats.Audit accumulates the per-apply ledgers,
// Boundedness() derives finite quotients and quantiles, and the offender
// ring retains the applies, worst ratio first.
func TestHostAuditAggregation(t *testing.T) {
	leakCheck(t)
	g := graph.New(8, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	h := NewHost(SSSP(sssp.NewInc(g, 0), 0), Options{})
	defer h.Close()

	batches := []graph.Batch{
		{{Kind: graph.InsertEdge, From: 2, To: 3, W: 1}},
		{{Kind: graph.InsertEdge, From: 3, To: 4, W: 1}, {Kind: graph.InsertEdge, From: 4, To: 5, W: 1}},
		{{Kind: graph.DeleteEdge, From: 1, To: 2}},
	}
	for _, b := range batches {
		if err := submitWait(h, b); err != nil {
			t.Fatal(err)
		}
	}

	st := h.Stats()
	if st.Audit.Runs != int64(len(batches)) {
		t.Fatalf("Audit.Runs = %d, want %d", st.Audit.Runs, len(batches))
	}
	if st.Audit.Delta != 4 {
		t.Fatalf("Audit.Delta = %d, want 4", st.Audit.Delta)
	}
	if st.Audit.Work() <= 0 {
		t.Fatalf("Audit.Work = %d", st.Audit.Work())
	}

	rep := h.Boundedness()
	if rep.Algo != "sssp" || rep.Ledger != st.Audit {
		t.Fatalf("report %+v does not match Stats.Audit %+v", rep.Ledger, st.Audit)
	}
	for name, v := range map[string]float64{
		"bounded_ratio": rep.BoundedRatio, "recompute_ratio": rep.RecomputeRatio,
		"ratio_p50": rep.RatioP50, "ratio_p95": rep.RatioP95, "ratio_max": rep.RatioMax,
		"rounds_p95": rep.RoundsP95, "worst_ratio": rep.WorstRatio,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("report field %s = %v", name, v)
		}
	}
	if rep.BoundedRatio <= 0 || rep.RatioMax <= 0 {
		t.Fatalf("quotients not populated: %+v", rep)
	}

	offs := h.Offenders()
	if len(offs) != len(batches) {
		t.Fatalf("offenders = %d, want %d", len(offs), len(batches))
	}
	for i, o := range offs {
		if o.Algo != "sssp" || o.Delta <= 0 || o.Batch == 0 {
			t.Fatalf("offender %d malformed: %+v", i, o)
		}
		if got := float64(o.Work) / float64(o.Delta); math.Abs(got-o.BoundedRatio) > 1e-9 {
			t.Fatalf("offender %d ratio %v != work/delta %v", i, o.BoundedRatio, got)
		}
		if i > 0 && offs[i-1].BoundedRatio < o.BoundedRatio {
			t.Fatalf("offenders not sorted: %v before %v", offs[i-1].BoundedRatio, o.BoundedRatio)
		}
	}
	if rep.WorstRatio != offs[0].BoundedRatio || rep.OffenderCount != len(offs) {
		t.Fatalf("report offender summary %v/%d vs ring %v/%d",
			rep.WorstRatio, rep.OffenderCount, offs[0].BoundedRatio, len(offs))
	}
}

// TestHTTPBoundednessEndpoints exercises GET /debug/boundedness and
// GET /debug/offenders over HTTP: valid JSON (a NaN anywhere would break
// encoding), every hosted algo present, and the algo filter plus its 404.
func TestHTTPBoundednessEndpoints(t *testing.T) {
	leakCheck(t)
	_, ts := newTestService(t)

	// Before any update: reports exist, all-zero, and still valid JSON.
	var empty map[string]BoundednessReport
	if code := getJSON(t, ts.URL+"/debug/boundedness", &empty); code != http.StatusOK {
		t.Fatalf("boundedness status %d", code)
	}
	if len(empty) != 2 || empty["sssp"].Ledger.Runs != 0 {
		t.Fatalf("pre-update reports: %+v", empty)
	}

	if code, body := postUpdate(t, ts.URL+"/update?wait=1", "+ 2 3 1\n+ 3 4 2\n"); code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, body)
	}

	var reports map[string]BoundednessReport
	getJSON(t, ts.URL+"/debug/boundedness", &reports)
	for _, algo := range []string{"sssp", "cc"} {
		rep, ok := reports[algo]
		if !ok {
			t.Fatalf("no report for %s: %v", algo, reports)
		}
		if rep.Ledger.Runs == 0 || rep.Ledger.Delta != 2 {
			t.Fatalf("%s report not populated: %+v", algo, rep)
		}
	}

	var offs map[string][]Offender
	getJSON(t, ts.URL+"/debug/offenders", &offs)
	if len(offs["sssp"]) == 0 || len(offs["cc"]) == 0 {
		t.Fatalf("offenders missing: %v", offs)
	}

	offs = nil
	getJSON(t, ts.URL+"/debug/offenders?algo=cc", &offs)
	if len(offs) != 1 || len(offs["cc"]) == 0 {
		t.Fatalf("filtered offenders: %v", offs)
	}

	var e map[string]string
	if code := getJSON(t, ts.URL+"/debug/offenders?algo=nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown algo status %d", code)
	}
}
