package incgraph

import (
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// TestUnitRoundZeroAlloc: a warmed unit round on the burst graph — one
// Advance of the graph the six served classes share, then each class's
// Repair — allocates nothing. The rounds alternate inserting and deleting
// one edge, so every round finds the room the last two used.
func TestUnitRoundZeroAlloc(t *testing.T) {
	g := gen.BurstGraph()
	ms := []interface{ Repair() int }{
		sssp.NewInc(g, 0), cc.NewInc(g), sim.NewInc(g, RandomPattern(3, 4, 5, 3)),
		dfs.NewInc(g), lcc.NewInc(g), bc.NewInc(g),
	}
	var u, v graph.NodeID
	for v = 1; g.HasEdge(u, v); v++ {
	}
	ins := graph.Batch{{Kind: graph.InsertEdge, From: u, To: v, W: 3}}
	del := graph.Batch{{Kind: graph.DeleteEdge, From: u, To: v}}
	round := func(b graph.Batch) {
		if len(g.Advance(b)) != 1 {
			t.Fatalf("round %v applied nothing", b)
		}
		for _, m := range ms {
			m.Repair()
		}
	}
	round(ins) // warm-up: every class's scratch holds a round of each kind
	round(del)
	alloctest.Zero(t, func(measure func(func())) {
		for k := 0; k < 10; k++ {
			measure(func() { round(ins) })
			measure(func() { round(del) })
		}
	})
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
