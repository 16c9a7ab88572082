package lcc

import (
	"math"
	"math/rand"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func triangleWithTail() *graph.Graph {
	// Triangle 0-1-2 with tail 2-3.
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(2, 3, 1)
	return g
}

// withIsolated returns a copy of g with k more nodes, isolated: the nodes
// a vertex insertion gives their first edges.
func withIsolated(g *graph.Graph, k int) *graph.Graph {
	c := graph.New(g.NumNodes()+k, g.Directed())
	g.Edges(func(u, v graph.NodeID, w int64) { c.InsertEdge(u, v, w) })
	return c
}

func TestRunKnown(t *testing.T) {
	r := Run(triangleWithTail())
	wantDeg := []int32{2, 2, 3, 1}
	wantTri := []int64{1, 1, 1, 0}
	for v := range wantDeg {
		if r.Deg[v] != wantDeg[v] || r.Tri[v] != wantTri[v] {
			t.Fatalf("node %d: (d=%d, λ=%d), want (%d, %d)", v, r.Deg[v], r.Tri[v], wantDeg[v], wantTri[v])
		}
	}
	if g := r.Gamma(0); math.Abs(g-1.0) > 1e-12 {
		t.Fatalf("γ(0) = %v, want 1", g)
	}
	if g := r.Gamma(2); math.Abs(g-1.0/3) > 1e-12 {
		t.Fatalf("γ(2) = %v, want 1/3", g)
	}
	if r.Gamma(3) != 0 {
		t.Fatal("degree-1 node must have γ = 0")
	}
}

func TestRunMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 60, 240, false)
		if !Run(g).Equal(Brute(g)) {
			t.Fatalf("seed %d: Run != Brute", seed)
		}
	}
}

func TestRunPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLaw(rng, 400, 10, false)
	if !Run(g).Equal(Brute(g)) {
		t.Fatal("Run != Brute on power-law graph")
	}
}

type maintainer interface {
	Apply(graph.Batch) int
	Result() *Result
	Graph() *graph.Graph
}

func checkMaintainer(t *testing.T, name string, mk func(*graph.Graph) maintainer) {
	t.Helper()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 70, 300, false)
		m := mk(g)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, m.Graph(), 14, 0.5)
			m.Apply(b)
			want := Run(m.Graph())
			if !m.Result().Equal(want) {
				t.Fatalf("%s seed %d round %d: result mismatch", name, seed, round)
			}
		}
	}
}

func TestIncAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncLCC", func(g *graph.Graph) maintainer { return NewInc(g) })
}

// unitFed is IncLCC_n: Inc fed each batch one unit update at a time.
type unitFed struct{ *Inc }

func (u unitFed) Apply(b graph.Batch) int {
	n := 0
	for k := range b {
		n += u.Inc.Apply(b[k : k+1])
	}
	return n
}

func TestIncUnitAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncLCC_n", func(g *graph.Graph) maintainer { return unitFed{NewInc(g)} })
}

func TestDynLCCAgainstBatch(t *testing.T) {
	checkMaintainer(t, "DynLCC", func(g *graph.Graph) maintainer { return NewDynLCC(g) })
}

func TestIncBoundedPE(t *testing.T) {
	// One update on a large sparse graph must recompute only a local
	// neighborhood.
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLaw(rng, 20000, 6, false)
	inc := NewInc(g)
	b := gen.RandomUpdates(rng, g, 1, 0.0)
	pe := inc.Apply(b)
	if pe > 2000 {
		t.Fatalf("PE set of a unit update has %d variables", pe)
	}
	if pe == 0 {
		t.Fatal("deletion produced empty PE set")
	}
}

func TestIncDeleteDestroysTriangles(t *testing.T) {
	inc := NewInc(triangleWithTail())
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}})
	r := inc.Result()
	for v := 0; v < 4; v++ {
		if r.Tri[v] != 0 {
			t.Fatalf("λ(%d) = %d after breaking the triangle", v, r.Tri[v])
		}
	}
	if r.Deg[0] != 1 || r.Deg[1] != 1 {
		t.Fatal("degrees not updated")
	}
}

// TestIncVertexInsertion: a vertex insertion is edge insertions at a node
// the graph was built with, still isolated (§4).
func TestIncVertexInsertion(t *testing.T) {
	g := withIsolated(triangleWithTail(), 1)
	inc := NewInc(g)
	v := graph.NodeID(4)
	inc.Apply(graph.Batch{
		{Kind: graph.InsertEdge, From: v, To: 0, W: 1},
		{Kind: graph.InsertEdge, From: v, To: 1, W: 1},
	})
	want := Run(g)
	if !inc.Result().Equal(want) {
		t.Fatal("result wrong after vertex insertion")
	}
	if inc.Result().Tri[v] != 1 {
		t.Fatal("new node should close one triangle")
	}
}

func TestIncEmptyBatch(t *testing.T) {
	inc := NewInc(triangleWithTail())
	before := inc.Result().clone()
	if pe := inc.Apply(nil); pe != 0 {
		t.Fatalf("empty batch recomputed %d variables", pe)
	}
	if !inc.Result().Equal(before) {
		t.Fatal("empty batch changed result")
	}
}

func TestResultHelpers(t *testing.T) {
	r := NewResult(2)
	o := NewResult(3)
	if r.Equal(o) {
		t.Fatal("size mismatch not detected")
	}
	r2 := NewResult(2)
	r2.Tri[1] = 5
	if r.Equal(r2) {
		t.Fatal("differing results reported equal")
	}
}
