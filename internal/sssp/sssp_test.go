package sssp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// paperGraph builds the graph of the paper's Fig. 2(a) as a graph.Graph.
func paperGraph() *graph.Graph {
	g := graph.New(8, true)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(2, 1, 4)
	g.InsertEdge(2, 5, 1)
	g.InsertEdge(5, 6, 1)
	g.InsertEdge(1, 4, 1)
	g.InsertEdge(4, 3, 1)
	g.InsertEdge(6, 7, 1)
	g.InsertEdge(2, 7, 4)
	g.InsertEdge(4, 6, 4)
	g.InsertEdge(3, 1, 1)
	return g
}

func TestDijkstraPaperExample(t *testing.T) {
	got := Dijkstra(paperGraph(), 0)
	want := []int64{0, 5, 1, 7, 6, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Dijkstra = %v, want %v", got, want)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 2)
	d := Dijkstra(g, 0)
	if d[2] != Infinity {
		t.Fatalf("unreachable node has distance %d", d[2])
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 60, 200, true)
		return reflect.DeepEqual(Dijkstra(g, 0), BellmanFord(g, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraBoundaryWeights holds the radix-heap Dijkstra to the
// Bellman–Ford reference on graphs drawn from the clock-seeded
// testing/quick, directed and undirected, from a drawn source, with half
// the weights at the boundaries a graph admits: 0 (ties and keys equal to
// the last popped), 1, and Infinity−1 (a key in the heap's top bucket, and
// sums past Infinity that must stay unreached).
func TestDijkstraBoundaryWeights(t *testing.T) {
	boundary := []int64{0, 1, Infinity - 1}
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := graph.New(n, directed)
		for k := rng.Intn(4 * n); k > 0; k-- {
			w := rng.Int63n(1000)
			if rng.Intn(2) == 0 {
				w = boundary[rng.Intn(len(boundary))]
			}
			g.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), w)
		}
		src := graph.NodeID(rng.Intn(n))
		return reflect.DeepEqual(Dijkstra(g, src), BellmanFord(g, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncPaperExample(t *testing.T) {
	inc := NewInc(paperGraph(), 0)
	h0 := inc.Apply(graph.Batch{
		{Kind: graph.DeleteEdge, From: 5, To: 6},
		{Kind: graph.InsertEdge, From: 5, To: 3, W: 1},
	})
	want := []int64{0, 4, 1, 3, 5, 2, 9, 5}
	if !reflect.DeepEqual(inc.Dist(), want) {
		t.Fatalf("IncSSSP = %v, want %v", inc.Dist(), want)
	}
	// Example 4 reports H0 = {x3, x6, x7}. Our implementation feeds the
	// insertion head x3 to the resumed step function as a push seed (its
	// old value stays feasible), so h itself revises exactly {x6, x7}.
	if h0 != 2 {
		t.Fatalf("|H0| = %d, want 2 (x6, x7)", h0)
	}
}

// checkMaintainer runs the correctness equation for any maintainer that
// owns its graph: after random batches, distances must equal a fresh batch
// run on the updated graph.
func checkMaintainer(t *testing.T, name string, mk func(*graph.Graph, graph.NodeID) interface {
	Apply(graph.Batch) int
	Dist() []int64
	Graph() *graph.Graph
}) {
	t.Helper()
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%3 != 0
		g := gen.ErdosRenyi(rng, 80, 320, directed)
		m := mk(g, 0)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, m.Graph(), 20, 0.5)
			m.Apply(b)
			want := Dijkstra(m.Graph(), 0)
			if !reflect.DeepEqual(m.Dist(), want) {
				t.Fatalf("%s seed %d round %d: dist mismatch", name, seed, round)
			}
		}
	}
}

func TestIncAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSSSP", func(g *graph.Graph, s graph.NodeID) interface {
		Apply(graph.Batch) int
		Dist() []int64
		Graph() *graph.Graph
	} {
		return NewInc(g, s)
	})
}

func TestIncEngineAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSSSPEngine", func(g *graph.Graph, s graph.NodeID) interface {
		Apply(graph.Batch) int
		Dist() []int64
		Graph() *graph.Graph
	} {
		return NewIncEngine(g, s)
	})
}

// The tuned Fig. 5 implementation and the generic-engine instance must
// agree distance for distance across many rounds.
func TestTunedMatchesEngine(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 70, 280, seed%2 == 0)
		tuned := NewInc(g.Clone(), 0)
		eng := NewIncEngine(g.Clone(), 0)
		for round := 0; round < 10; round++ {
			b := gen.RandomUpdates(rng, tuned.Graph(), 15, 0.5)
			tuned.Apply(b)
			eng.Apply(b)
			if !reflect.DeepEqual(tuned.Dist(), eng.Dist()) {
				t.Fatalf("seed %d round %d: tuned != engine", seed, round)
			}
		}
	}
}

// unitFed is IncSSSP_n: Inc fed each batch one unit update at a time.
type unitFed struct{ *Inc }

func (u unitFed) Apply(b graph.Batch) int {
	n := 0
	for k := range b {
		n += u.Inc.Apply(b[k : k+1])
	}
	return n
}

func TestIncUnitAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSSSP_n", func(g *graph.Graph, s graph.NodeID) interface {
		Apply(graph.Batch) int
		Dist() []int64
		Graph() *graph.Graph
	} {
		return unitFed{NewInc(g, s)}
	})
}

// TestIncInsertThenDelete feeds a batch that is not netted: on the path
// 0→1→2→3, [+(0,3,1), −(0,3)] inserts a shortcut and deletes it again,
// and both updates change the graph, so both are in the applied list.
// The shortcut must not lower dist[3]; nor may the first weight of an
// edge the batch re-inserts at another.
func TestIncInsertThenDelete(t *testing.T) {
	batches := []graph.Batch{
		{{Kind: graph.InsertEdge, From: 0, To: 3, W: 1}, {Kind: graph.DeleteEdge, From: 0, To: 3}},
		{{Kind: graph.InsertEdge, From: 0, To: 3, W: 1}, {Kind: graph.DeleteEdge, From: 0, To: 3},
			{Kind: graph.InsertEdge, From: 0, To: 3, W: 5}},
	}
	for _, directed := range []bool{true, false} {
		for k, b := range batches {
			g := graph.New(4, directed)
			for v := graph.NodeID(0); v < 3; v++ {
				g.InsertEdge(v, v+1, 1)
			}
			for _, m := range []interface {
				Apply(graph.Batch) int
				Dist() []int64
			}{NewInc(g.Clone(), 0), NewIncEngine(g.Clone(), 0)} {
				m.Apply(b)
				if want := []int64{0, 1, 2, 3}; !reflect.DeepEqual(m.Dist(), want) {
					t.Errorf("%T directed=%v batch %d: dist %v, want %v", m, directed, k, m.Dist(), want)
				}
			}
		}
	}
}

func TestRRAgainstBatch(t *testing.T) {
	checkMaintainer(t, "RR", func(g *graph.Graph, s graph.NodeID) interface {
		Apply(graph.Batch) int
		Dist() []int64
		Graph() *graph.Graph
	} {
		return NewRR(g, s)
	})
}

func TestDynDijAgainstBatch(t *testing.T) {
	checkMaintainer(t, "DynDij", func(g *graph.Graph, s graph.NodeID) interface {
		Apply(graph.Batch) int
		Dist() []int64
		Graph() *graph.Graph
	} {
		return NewDynDij(g, s)
	})
}

func TestIncWeightChange(t *testing.T) {
	// A weight change expressed as delete+insert of the same edge.
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 5)
	g.InsertEdge(1, 2, 5)
	inc := NewInc(g, 0)
	inc.Apply(graph.Batch{
		{Kind: graph.DeleteEdge, From: 0, To: 1},
		{Kind: graph.InsertEdge, From: 0, To: 1, W: 2},
	})
	if !reflect.DeepEqual(inc.Dist(), []int64{0, 2, 7}) {
		t.Fatalf("dist = %v", inc.Dist())
	}
	// And a worsening change.
	inc.Apply(graph.Batch{
		{Kind: graph.DeleteEdge, From: 0, To: 1},
		{Kind: graph.InsertEdge, From: 0, To: 1, W: 9},
	})
	if !reflect.DeepEqual(inc.Dist(), []int64{0, 9, 14}) {
		t.Fatalf("dist = %v", inc.Dist())
	}
}

func TestIncDisconnect(t *testing.T) {
	// Deleting the only path must push distances back to Infinity.
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	inc := NewInc(g, 0)
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 2}})
	want := []int64{0, 1, Infinity, Infinity}
	if !reflect.DeepEqual(inc.Dist(), want) {
		t.Fatalf("dist = %v, want %v", inc.Dist(), want)
	}
	// Reconnect through a different edge.
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 3, W: 7}})
	if inc.Dist()[3] != 7 {
		t.Fatalf("dist[3] = %d after reconnect", inc.Dist()[3])
	}
}

func TestIncVertexInsertion(t *testing.T) {
	// A vertex insertion is edge insertions at a node the graph was built
	// with, still isolated (§4).
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 3)
	inc := NewInc(g, 0)
	v := graph.NodeID(2)
	if got := inc.Dist()[v]; got != Infinity {
		t.Fatalf("dist[isolated] = %d, want Infinity", got)
	}
	inc.Apply(graph.Batch{
		{Kind: graph.InsertEdge, From: 1, To: v, W: 2},
	})
	if got := inc.Dist()[v]; got != 5 {
		t.Fatalf("dist[%d] = %d, want 5", v, got)
	}
}

func TestIncVertexDeletion(t *testing.T) {
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(0, 3, 9)
	inc := NewInc(g, 0)
	// Deleting node 2 is the dual of deleting its incident edges (§4):
	// hand the incident edges to the incremental algorithm as a batch,
	// which leaves node 2 isolated.
	var b graph.Batch
	out, _, _, _ := g.Flat().OutSpans(2)
	for _, v := range out {
		b = append(b, graph.Update{Kind: graph.DeleteEdge, From: 2, To: v})
	}
	in, _, _, _ := g.Flat().InSpans(2)
	for _, u := range in {
		b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: 2})
	}
	inc.Apply(b)
	if got := inc.Dist()[3]; got != 9 {
		t.Fatalf("dist[3] = %d, want 9 via direct edge", got)
	}
	if got := inc.Dist()[2]; got != Infinity {
		t.Fatalf("dist[2] = %d, want Infinity", got)
	}
}

func TestIncBoundedInspection(t *testing.T) {
	// Relative boundedness, measured: a single far-away update on a large
	// graph must inspect far less data than the batch run did.
	rng := rand.New(rand.NewSource(5))
	g := gen.PowerLaw(rng, 20000, 8, true)
	inc := NewInc(g, 0)

	b := gen.RandomUpdates(rng, g, 2, 0.5)
	before := inc.Stats().Inspected()
	inc.Apply(b)
	delta := inc.Stats().Inspected() - before
	// A batch run inspects every edge at least once: |G| is a lower bound.
	if delta*10 > int64(g.Size()) {
		t.Fatalf("unit update inspected %d vs |G| = %d: not relatively bounded", delta, g.Size())
	}

	// The engine-based variant records full batch statistics; check the
	// same property against its own batch run.
	g2 := gen.PowerLaw(rand.New(rand.NewSource(5)), 20000, 8, true)
	eng := NewIncEngine(g2, 0)
	batch := eng.Stats().Inspected()
	before = eng.Stats().Inspected()
	eng.Apply(gen.RandomUpdates(rand.New(rand.NewSource(6)), g2, 2, 0.5))
	delta = eng.Stats().Inspected() - before
	if delta*10 > batch {
		t.Fatalf("engine unit update inspected %d vs batch %d", delta, batch)
	}
}

func TestIncEmptyBatch(t *testing.T) {
	g := paperGraph()
	inc := NewInc(g, 0)
	before := append([]int64(nil), inc.Dist()...)
	if h0 := inc.Apply(nil); h0 != 0 {
		t.Fatalf("empty batch produced H0 of size %d", h0)
	}
	if !reflect.DeepEqual(before, inc.Dist()) {
		t.Fatal("empty batch changed distances")
	}
}

func TestRRUnitInsertImproves(t *testing.T) {
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 10)
	g.InsertEdge(1, 2, 10)
	rr := NewRR(g, 0)
	rr.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 3}})
	if rr.Dist()[2] != 3 {
		t.Fatalf("dist[2] = %d", rr.Dist()[2])
	}
}

func TestDynDijSubtreeInvalidation(t *testing.T) {
	// Deleting a tree edge must repair exactly the hanging subtree.
	g := graph.New(5, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(0, 4, 1)
	g.InsertEdge(4, 3, 10)
	d := NewDynDij(g, 0)
	affected := d.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 2}})
	if affected != 2 { // nodes 2 and 3
		t.Fatalf("affected = %d, want 2", affected)
	}
	want := []int64{0, 1, Infinity, 11, 1}
	if !reflect.DeepEqual(d.Dist(), want) {
		t.Fatalf("dist = %v, want %v", d.Dist(), want)
	}
}
