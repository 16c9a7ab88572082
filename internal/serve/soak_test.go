package serve

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
)

// TestAuditSoak is the nightly endurance run: a sustained random
// update stream against SSSP and CC hosts for INCGRAPH_SOAK_SECONDS
// seconds (skipped when unset), continuously asserting the audit
// plane's invariants — ledgers accumulate monotonically, every derived
// quotient stays finite, the offender ring stays sorted — and checking
// the goroutine count returns to its baseline afterwards, so a slow
// leak in the apply loop cannot hide behind short test runs.
func TestAuditSoak(t *testing.T) {
	env := os.Getenv("INCGRAPH_SOAK_SECONDS")
	if env == "" {
		t.Skip("set INCGRAPH_SOAK_SECONDS to run the audit soak")
	}
	secs, err := strconv.Atoi(env)
	if err != nil || secs <= 0 {
		t.Fatalf("INCGRAPH_SOAK_SECONDS=%q: want a positive integer", env)
	}

	before := runtime.NumGoroutine()
	const n = 2000
	build := func(directed bool) *graph.Graph {
		g := graph.New(n, directed)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 4*n; i++ {
			g.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), int64(1+rng.Intn(8)))
		}
		return g
	}
	svc := NewService()
	for _, m := range []Serveable{SSSP(sssp.NewInc(build(false), 0)), CC(cc.NewInc(build(false)))} {
		if _, err := svc.Host(m, Options{}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(11))
	randomBatch := func() graph.Batch {
		b := make(graph.Batch, 1+rng.Intn(8))
		for i := range b {
			u := graph.Update{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n)), W: int64(1 + rng.Intn(8))}
			u.Kind = graph.InsertEdge
			if rng.Intn(3) == 0 {
				u.Kind = graph.DeleteEdge
			}
			b[i] = u
		}
		return b
	}

	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	var applies int64
	prevRuns := map[string]int64{}
	for time.Now().Before(deadline) {
		if err := submitWait(svc, randomBatch()); err != nil {
			t.Fatalf("apply %d: %v", applies, err)
		}
		applies++
		if applies%512 != 0 {
			continue
		}
		for _, h := range svc.Hosts() {
			name := h.Algo()
			// Periodic invariant sweep, cheap enough to not skew the soak.
			st := h.Stats()
			if st.Audit.Runs <= prevRuns[name] {
				t.Fatalf("%s: Audit.Runs did not advance: %d -> %d", name, prevRuns[name], st.Audit.Runs)
			}
			prevRuns[name] = st.Audit.Runs
			rep := h.Boundedness()
			for field, v := range map[string]float64{
				"bounded": rep.BoundedRatio, "recompute": rep.RecomputeRatio,
				"p50": rep.RatioP50, "p95": rep.RatioP95, "max": rep.RatioMax,
				"worst": rep.WorstRatio,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: report %s = %v after %d applies", name, field, v, applies)
				}
			}
			offs := h.Offenders()
			for i := 1; i < len(offs); i++ {
				if offs[i-1].BoundedRatio < offs[i].BoundedRatio {
					t.Fatalf("%s: offender ring unsorted at %d", name, i)
				}
			}
		}
	}
	t.Logf("soak: %d applies over %ds", applies, secs)

	for _, h := range svc.Hosts() {
		if st := h.Stats(); st.Audit.Runs == 0 || st.Audit.Work() <= 0 {
			t.Errorf("%s: audit ledger empty after soak: %+v", h.Algo(), st.Audit)
		}
	}
	svc.Close()
	waitForGoroutines(t, before)
}
