package incgraph

// Long-haul stress tests: every maintainer is driven through many rounds
// of mixed update batches and cross-checked against batch recomputation
// after each round. Multi-round runs are what expose timestamp-staleness
// bugs — a single round can pass while the auxiliary structures rot.

import (
	"reflect"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/lcc"
)

const (
	stressRounds = 40
	stressBatch  = 25
)

func TestStressSSSP(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := PowerLawGraph(10, 400, 8, directed)
		inc := NewIncSSSP(g, 0)
		for round := 0; round < stressRounds; round++ {
			inc.Apply(RandomUpdates(int64(round), inc.Graph(), stressBatch, 0.5))
			if !reflect.DeepEqual(inc.Dist(), SSSP(inc.Graph(), 0)) {
				t.Fatalf("directed=%v round %d: distances diverged", directed, round)
			}
		}
	}
}

func TestStressCC(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := PowerLawGraph(11, 400, 6, directed)
		inc := NewIncCC(g)
		for round := 0; round < stressRounds; round++ {
			inc.Apply(RandomUpdates(int64(100+round), inc.Graph(), stressBatch, 0.5))
			if !reflect.DeepEqual(inc.Labels(), ConnectedComponents(inc.Graph())) {
				t.Fatalf("directed=%v round %d: labels diverged", directed, round)
			}
		}
	}
}

func TestStressSim(t *testing.T) {
	g := PowerLawGraph(12, 400, 8, true)
	q := RandomPattern(13, 4, 6, 5)
	inc := NewIncSim(g, q)
	for round := 0; round < stressRounds; round++ {
		inc.Apply(RandomUpdates(int64(200+round), inc.Graph(), stressBatch, 0.5))
		if !inc.Relation().Equal(Simulation(inc.Graph(), q)) {
			t.Fatalf("round %d: relation diverged", round)
		}
	}
}

func TestStressDFS(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := PowerLawGraph(14, 300, 7, directed)
		inc := NewIncDFS(g)
		for round := 0; round < stressRounds; round++ {
			inc.Apply(RandomUpdates(int64(300+round), inc.Graph(), stressBatch, 0.5))
			if !inc.Tree().Equal(DFS(inc.Graph())) {
				t.Fatalf("directed=%v round %d: tree diverged", directed, round)
			}
		}
	}
}

func TestStressLCC(t *testing.T) {
	g := PowerLawGraph(15, 350, 8, false)
	inc := NewIncLCC(g)
	for round := 0; round < stressRounds; round++ {
		inc.Apply(RandomUpdates(int64(400+round), inc.Graph(), stressBatch, 0.5))
		if !inc.Result().Equal(lcc.Run(inc.Graph())) {
			t.Fatalf("round %d: coefficients diverged", round)
		}
	}
}

func TestStressBC(t *testing.T) {
	g := PowerLawGraph(16, 300, 5, false)
	inc := NewIncBC(g)
	for round := 0; round < stressRounds; round++ {
		inc.Apply(RandomUpdates(int64(500+round), inc.Graph(), stressBatch, 0.5))
		if !inc.Result().Equivalent(bc.Run(inc.Graph()), inc.Graph()) {
			t.Fatalf("round %d: biconnectivity diverged", round)
		}
	}
}

// TestStressInterleavedVertexUpdates drives node insertions and deletions
// through the edge-update dual (§4) across rounds: a node inserted is one
// the graph is built with, isolated until its round gives it edges.
func TestStressInterleavedVertexUpdates(t *testing.T) {
	const rounds = 15
	base := PowerLawGraph(17, 200, 6, true)
	g := NewGraph(base.NumNodes()+rounds, true)
	base.Edges(func(u, v NodeID, w int64) { g.InsertEdge(u, v, w) })
	incS := NewIncSSSP(g, 0)
	incC := NewIncCC(g.Clone())
	for round := 0; round < rounds; round++ {
		// Wire an isolated node to two existing ones.
		gs := incS.Graph()
		v := NodeID(base.NumNodes() + round)
		b := Batch{
			{Kind: InsertEdge, From: NodeID(round % 50), To: v, W: 3},
			{Kind: InsertEdge, From: v, To: NodeID((round * 7) % 50), W: 2},
		}
		b = append(b, RandomUpdates(int64(600+round), gs, 10, 0.5)...)
		incS.Apply(b)
		incC.Apply(b)
		if !reflect.DeepEqual(incS.Dist(), SSSP(gs, 0)) {
			t.Fatalf("round %d: SSSP diverged after vertex insert", round)
		}
		if !reflect.DeepEqual(incC.Labels(), ConnectedComponents(incC.Graph())) {
			t.Fatalf("round %d: CC diverged after vertex insert", round)
		}
	}
}
