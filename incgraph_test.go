package incgraph

import (
	"bytes"
	"reflect"
	"testing"
)

func TestFacadeSSSPRoundTrip(t *testing.T) {
	g := NewGraph(4, true)
	g.InsertEdge(0, 1, 2)
	g.InsertEdge(1, 2, 2)
	g.InsertEdge(0, 3, 10)
	inc := NewIncSSSP(g, 0)
	if !reflect.DeepEqual(inc.Dist(), []int64{0, 2, 4, 10}) {
		t.Fatalf("initial dist = %v", inc.Dist())
	}
	inc.Apply(Batch{{Kind: InsertEdge, From: 2, To: 3, W: 1}})
	if inc.Dist()[3] != 5 {
		t.Fatalf("dist[3] = %d after insert", inc.Dist()[3])
	}
	if !reflect.DeepEqual(inc.Dist(), SSSP(g, 0)) {
		t.Fatal("incremental != batch")
	}
}

func TestFacadeCC(t *testing.T) {
	g := NewGraph(4, false)
	g.InsertEdge(0, 1, 1)
	inc := NewIncCC(g)
	inc.Apply(Batch{{Kind: InsertEdge, From: 2, To: 3, W: 1}})
	if !reflect.DeepEqual(inc.Labels(), ConnectedComponents(g)) {
		t.Fatal("incremental != batch")
	}
}

func TestFacadeSimulation(t *testing.T) {
	g := PowerLawGraph(1, 300, 6, true)
	q := RandomPattern(2, 4, 6, 5)
	inc := NewIncSim(g, q)
	inc.Apply(RandomUpdates(3, g, 20, 0.5))
	if !inc.Relation().Equal(Simulation(g, q)) {
		t.Fatal("incremental != batch")
	}
}

func TestFacadeDFSAndLCC(t *testing.T) {
	g := PowerLawGraph(4, 200, 6, false)
	incD := NewIncDFS(g)
	incL := NewIncLCC(g.Clone())
	b := RandomUpdates(5, g, 10, 0.5)
	incD.Apply(b)
	incL.Apply(b)
	if !incD.Tree().Equal(DFS(incD.Graph())) {
		t.Fatal("IncDFS != batch")
	}
	if !incL.Result().Equal(LCC(incL.Graph())) {
		t.Fatal("IncLCC != batch")
	}
}

func TestFacadeDualSim(t *testing.T) {
	g := PowerLawGraph(8, 300, 6, true)
	q := RandomPattern(9, 4, 6, 5)
	inc := NewIncDualSim(g, q)
	inc.Apply(RandomUpdates(10, g, 25, 0.5))
	if !inc.Relation().Equal(DualSimulation(g, q)) {
		t.Fatal("incremental dual sim != batch")
	}
	// Dual simulation refines plain simulation.
	plain := Simulation(g, q)
	dual := inc.Relation()
	for v := 0; v < g.NumNodes(); v++ {
		for u := 0; u < q.NumNodes(); u++ {
			if dual.Match(NodeID(v), NodeID(u)) && !plain.Match(NodeID(v), NodeID(u)) {
				t.Fatal("dual match not a plain match")
			}
		}
	}
}

func TestFacadeBCAndIO(t *testing.T) {
	g := PowerLawGraph(6, 300, 6, false)
	inc := NewIncBC(g)
	inc.Apply(RandomUpdates(7, g, 20, 0.5))
	if !inc.Result().Equivalent(Biconnectivity(g), g) {
		t.Fatal("incremental BC != batch")
	}

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := GridGraph(1, 4, 5); g.NumNodes() != 20 {
		t.Fatalf("grid nodes = %d", g.NumNodes())
	}
	g := PowerLawGraph(1, 100, 6, false)
	h := PowerLawGraph(1, 100, 6, false)
	if g.NumEdges() != h.NumEdges() {
		t.Fatal("generator not deterministic")
	}
	tp := NewTemporal(2, false, nil, []Event{
		{Time: 1, Update: Update{Kind: InsertEdge, From: 0, To: 1, W: 1}},
	})
	if tp.Snapshot(1).NumEdges() != 1 {
		t.Fatal("temporal snapshot wrong")
	}
}

// TestServeSSSPSource: the source ServeSSSP is given must be the
// maintainer's; built on 0 and given 3 it panics instead of publishing
// distances from 0 as distances from 3 (and recomputing from 3 at the next
// heal). Given 0, the view and the view after a recompute are from 0.
func TestServeSSSPSource(t *testing.T) {
	g := PowerLawGraph(12, 200, 6, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ServeSSSP took source 3 for a maintainer built on source 0")
			}
		}()
		ServeSSSP(NewIncSSSP(g.Clone(), 0), 3)
	}()
	s := ServeSSSP(NewIncSSSP(g, 0), 0)
	for _, when := range []string{"as built", "after Recompute"} {
		if when == "after Recompute" {
			s.Recompute()
		}
		v := s.Snapshot().(ServeSSSPView)
		if v.Src != 0 || !reflect.DeepEqual(v.Dist.Slice(), SSSP(g, 0)) {
			t.Fatalf("%s: view of source %d, want the distances from source 0", when, v.Src)
		}
	}
}
