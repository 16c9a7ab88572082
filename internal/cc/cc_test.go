package cc

import (
	"math/rand"
	"reflect"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func TestBatchAlgorithmsAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := gen.ErdosRenyi(rng, 60, 70, directed)
		ref := Components(g)
		if got := CCfp(g); !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: CCfp %v != BFS %v", seed, got, ref)
		}
	}
}

func TestCCfpSimple(t *testing.T) {
	g := graph.New(6, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(4, 5, 1)
	want := []int64{0, 0, 0, 3, 4, 4}
	if got := CCfp(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("CCfp = %v, want %v", got, want)
	}
}

type maintainer interface {
	Apply(graph.Batch) int
	Labels() []int64
	Graph() *graph.Graph
}

func checkMaintainer(t *testing.T, name string, mk func(*graph.Graph) maintainer) {
	t.Helper()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%4 == 0
		g := gen.ErdosRenyi(rng, 70, 90, directed)
		m := mk(g)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, m.Graph(), 15, 0.5)
			m.Apply(b)
			want := Components(m.Graph())
			if !reflect.DeepEqual(m.Labels(), want) {
				t.Fatalf("%s seed %d round %d: labels mismatch\n got %v\nwant %v",
					name, seed, round, m.Labels(), want)
			}
		}
	}
}

func TestIncAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncCC", func(g *graph.Graph) maintainer { return NewInc(g) })
}

func TestIncNaiveAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncCCNaive", func(g *graph.Graph) maintainer { return NewIncNaive(g) })
}

func TestDynCCAgainstBatch(t *testing.T) {
	checkMaintainer(t, "DynCC", func(g *graph.Graph) maintainer { return NewDynCC(g) })
}

func TestIncSplitComponent(t *testing.T) {
	// Deleting a bridge splits a component; the side not containing the
	// minimum id must relabel.
	g := graph.New(6, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(3, 4, 1)
	g.InsertEdge(4, 5, 1)
	inc := NewInc(g)
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 2, To: 3}})
	want := []int64{0, 0, 0, 3, 3, 3}
	if !reflect.DeepEqual(inc.Labels(), want) {
		t.Fatalf("labels = %v, want %v", inc.Labels(), want)
	}
}

func TestIncMergeComponents(t *testing.T) {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(2, 3, 1)
	inc := NewInc(g)
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 2, W: 1}})
	want := []int64{0, 0, 0, 0}
	if !reflect.DeepEqual(inc.Labels(), want) {
		t.Fatalf("labels = %v, want %v", inc.Labels(), want)
	}
}

func TestIncDeleteWithCycleStaysPut(t *testing.T) {
	// Deleting one edge of a cycle must not relabel anything, and the
	// timestamped h should inspect only a bounded region (Example 5: only
	// the endpoint with the larger timestamp is truly affected).
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(3, 0, 1)
	inc := NewInc(g)
	before := append([]int64(nil), inc.Labels()...)
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 2}})
	if !reflect.DeepEqual(before, inc.Labels()) {
		t.Fatalf("labels changed: %v", inc.Labels())
	}
}

func TestTimestampedBeatsNaiveOnDeletion(t *testing.T) {
	// Example 5's point, measured: deleting an edge from a single large
	// component must cost IncCC (timestamps) far less than IncCCNaive
	// (full PE closure over the component).
	rng := rand.New(rand.NewSource(4))
	g := gen.PowerLaw(rng, 5000, 8, false)

	inc := NewInc(g.Clone())
	naive := NewIncNaive(g.Clone())
	b := gen.RandomUpdates(rng, g, 1, 0.0) // one deletion
	h0 := inc.Apply(b)
	pe := naive.Apply(b)
	if !reflect.DeepEqual(inc.Labels(), naive.Labels()) {
		t.Fatal("algorithms disagree")
	}
	if h0*10 > pe {
		t.Fatalf("IncCC scope %d not much smaller than naive PE %d", h0, pe)
	}
}

// TestIncVertexUpdates: a vertex insertion is edge insertions at a node
// the graph was built with, still isolated (§4).
func TestIncVertexUpdates(t *testing.T) {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	inc := NewInc(g)
	v := graph.NodeID(3)
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 2, To: v, W: 1}})
	want := Components(g)
	if !reflect.DeepEqual(inc.Labels(), want) {
		t.Fatalf("labels = %v, want %v", inc.Labels(), want)
	}
}

func TestIncSuccessiveWindows(t *testing.T) {
	// Long-running maintenance across many windows (temporal workload).
	rng := rand.New(rand.NewSource(8))
	base := gen.PowerLaw(rng, 300, 6, false)
	tp := gen.TemporalStream(rng, base, 6, 40, 0.81)
	g := tp.Snapshot(0)
	inc := NewInc(g)
	for w := int64(1); w <= 6; w++ {
		inc.Apply(tp.Window(w-1, w))
		want := Components(inc.Graph())
		if !reflect.DeepEqual(inc.Labels(), want) {
			t.Fatalf("window %d: labels mismatch", w)
		}
	}
}
