package serve

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
)

// The trace package satisfies the engine's optional parallel-round hook
// structurally; this assertion pins the signatures together at compile
// time from the one package that imports both.
var _ fixpoint.ParRoundTracer = (*trace.EngineTracer)(nil)

// TestHostParallelMatchesSequential drives identical update streams
// through parallel (Workers: 4) and sequential hosts for SSSP and CC and
// requires the final published views to be deep-equal — the serving-layer
// half of the determinism guarantee. The stream is wide enough (large
// submissions against a power-law graph) that the parallel hosts really
// take partitioned rounds, which the aggregated stats must show.
func TestHostParallelMatchesSequential(t *testing.T) {
	const nodes, chunks, chunkLen = 2000, 6, 400
	rng := rand.New(rand.NewSource(5))
	base := gen.PowerLaw(rng, nodes, 8, true)
	stream := makeStream(17, nodes, chunks*chunkLen)

	build := func(workers int) (*Host, *Host) {
		opt := Options{MaxBatch: chunkLen, Workers: workers}
		hs := NewHost(SSSP(sssp.NewInc(base.Clone(), 0), 0), opt)
		hc := NewHost(CC(cc.NewInc(base.Clone())), opt)
		return hs, hc
	}
	seqS, seqC := build(0)
	parS, parC := build(4)
	for _, h := range []*Host{seqS, seqC, parS, parC} {
		for i := 0; i < chunks; i++ {
			if err := h.Submit(stream[i*chunkLen : (i+1)*chunkLen]); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
	}

	if a, b := seqS.View().Data, parS.View().Data; !reflect.DeepEqual(a, b) {
		t.Fatal("sssp: parallel host's final view differs from sequential")
	}
	if a, b := seqC.View().Data, parC.View().Data; !reflect.DeepEqual(a, b) {
		t.Fatal("cc: parallel host's final view differs from sequential")
	}

	// The oracle: the final views must equal batch recomputation over the
	// final graph (the unique fixpoint, regardless of batching schedule).
	finalG := base.Clone()
	finalG.Apply(stream.Net(finalG.Directed()))
	if got := parS.View().Data.(SSSPView).Dist.Slice(); !reflect.DeepEqual(got, sssp.Dijkstra(finalG, 0)) {
		t.Fatal("sssp: parallel host's final view differs from fresh Dijkstra")
	}
	if got := parC.View().Data.(CCView).Labels.Slice(); !reflect.DeepEqual(got, cc.Components(finalG)) {
		t.Fatal("cc: parallel host's final view differs from batch components")
	}

	// Stats exposure: the parallel hosts report the configured worker
	// count and the aggregated drain counters; sequential hosts stay zero.
	for _, tc := range []struct {
		name string
		h    *Host
	}{{"sssp", parS}, {"cc", parC}} {
		st := tc.h.Stats()
		if st.Workers != 4 || st.Par.Workers != 4 {
			t.Fatalf("%s: Workers %d / Par.Workers %d, want 4/4", tc.name, st.Workers, st.Par.Workers)
		}
		if st.Par.ParRounds == 0 {
			t.Fatalf("%s: no partitioned rounds on a wide stream: %+v", tc.name, st.Par)
		}
		if u := st.WorkerUtilization; u <= 0 || u > 1 {
			t.Fatalf("%s: WorkerUtilization %v outside (0,1]", tc.name, u)
		}
	}
	if st := seqS.Stats(); st.Workers != 0 || st.Par != (fixpoint.ParStats{}) {
		t.Fatalf("sequential host leaked parallel stats: %+v", st.Par)
	}

	// /stats serves the same struct; the JSON must carry the worker count.
	raw, err := json.Marshal(parS.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"workers":4`) || !strings.Contains(string(raw), `"par_rounds"`) {
		t.Fatalf("stats JSON missing parallel fields: %s", raw)
	}
	if raw, _ = json.Marshal(seqS.Stats()); strings.Contains(string(raw), `"par"`) {
		t.Fatalf("sequential stats JSON carries a par block: %s", raw)
	}
}

// TestHostWorkersSurviveHeal panics the maintainer once and checks that
// the heal recompute — which rebuilds the inner maintainer, discarding
// its worker pool — re-installs the configured worker count, so repairs
// after the heal still run partitioned.
func TestHostWorkersSurviveHeal(t *testing.T) {
	const nodes, wide = 2000, 400
	rng := rand.New(rand.NewSource(9))
	base := gen.PowerLaw(rng, nodes, 8, true)
	stream := makeStream(29, nodes, 2*wide)
	inj := faults.New()
	inj.PanicOn("sssp", 2)

	h := NewHost(SSSP(sssp.NewInc(base.Clone(), 0), 0), Options{
		MaxBatch: wide, Workers: 4,
		BeforeApply: inj.BeforeApply,
	})
	defer h.Close()

	b1, b3 := stream[:wide], stream[wide:]
	poisoned := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}
	if err := h.SubmitWait(b1); err != nil {
		t.Fatal(err)
	}
	beforeHeal := h.Stats().Par.ParRounds
	if beforeHeal == 0 {
		t.Fatal("no partitioned rounds before the heal")
	}
	if err := h.SubmitWait(poisoned); err != nil { // panics before Apply → heal
		t.Fatal(err)
	}
	if err := h.SubmitWait(b3); err != nil {
		t.Fatal(err)
	}

	st := h.Stats()
	if st.Panics != 1 || st.Heals != 1 || st.Degraded {
		t.Fatalf("stats after poisoned apply: panics=%d heals=%d degraded=%v", st.Panics, st.Heals, st.Degraded)
	}
	if st.Par.ParRounds <= beforeHeal {
		t.Fatalf("no partitioned rounds after the heal: %d before, %d after", beforeHeal, st.Par.ParRounds)
	}
	// The healed-then-repaired answer: the poisoned batch never reached
	// the graph, so the oracle replays b1+b3 only.
	og := base.Clone()
	og.Apply(b1.Net(og.Directed()))
	og.Apply(b3.Net(og.Directed()))
	if got := h.View().Data.(SSSPView).Dist.Slice(); !reflect.DeepEqual(got, sssp.Dijkstra(og, 0)) {
		t.Fatal("post-heal parallel repairs diverged from oracle")
	}
}
