package lcc

import (
	"testing"
	"testing/quick"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// TestDerivativeAgainstBrute is the property that the derivative of the
// count is exact on raw update sequences — no-ops, repeats and churn on
// one edge kept, nothing netted — cut into rounds of one to three pieces,
// on small graphs quick draws edge by edge: after every Repair
// the status is Brute's (and Run's), and the nodes whose d_v or λ_v
// changed are in Written(), which is the input-set scope (checkRepair).
func TestDerivativeAgainstBrute(t *testing.T) {
	prop := func(size uint8, edges []uint16, ops []uint16) bool {
		n := 3 + int(size%10)
		node := func(x uint16) graph.NodeID { return graph.NodeID(int(x) % n) }
		g := graph.New(n, false)
		for _, e := range edges {
			g.InsertEdge(node(e), node(e>>8), 1)
		}
		inc := NewInc(g)
		// An op is an update (bit 0 the kind, bits 1–7 and 8–14 the
		// endpoints) and, in bit 15, whether its piece ends with it; every
		// third piece, and the last, closes a round that checkRepair
		// stages whole and repairs.
		var stages []graph.Batch
		var cur graph.Batch
		for k, op := range ops {
			kind := graph.InsertEdge
			if op&1 == 1 {
				kind = graph.DeleteEdge
			}
			cur = append(cur, graph.Update{Kind: kind, From: node(op >> 1 & 0x7f), To: node(op >> 8 & 0x7f), W: 1})
			if op>>15 == 0 && k < len(ops)-1 {
				continue
			}
			stages, cur = append(stages, cur), nil
			if len(stages) < 3 && k < len(ops)-1 {
				continue
			}
			if err := checkRepair(inc, stages...); err != nil {
				t.Logf("graph of %d nodes, edges %v, stages %v: %v", n, edges, stages, err)
				return false
			}
			stages = nil
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	ins := func(u, v graph.NodeID) graph.Update {
		return graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: 1}
	}
	del := func(u, v graph.NodeID) graph.Update { return graph.Update{Kind: graph.DeleteEdge, From: u, To: v} }
	// On two triangles {0,1,2} and {1,2,3} sharing the edge (1,2), a
	// pendant 4 on node 3, and an isolated node 5.
	cases := []struct {
		name   string
		stages []graph.Batch
	}{
		{"delete then reinsert, then break a triangle of it", []graph.Batch{{del(1, 2), ins(2, 1), del(0, 1)}}},
		{"insert then delete of an absent edge", []graph.Batch{{ins(0, 3), del(3, 0)}}},
		{"all three edges of one triangle, one batch", []graph.Batch{{del(0, 1), ins(1, 3), del(0, 2), del(1, 2), ins(0, 1)}}},
		{"three stages", []graph.Batch{{del(0, 2), ins(0, 3)}, {del(1, 3), ins(0, 2)}, {del(0, 3), ins(3, 0), ins(5, 0)}}},
	}
	for _, c := range cases {
		g := graph.New(6, false)
		for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}} {
			g.InsertEdge(e[0], e[1], 1)
		}
		if err := checkRepair(NewInc(g), c.stages...); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// Vertex insertions: the first edges of two nodes isolated until then.
	t.Run("node ids the batch adds", func(t *testing.T) {
		inc := NewInc(withIsolated(triangleWithTail(), 2))
		v, w := graph.NodeID(4), graph.NodeID(5)
		if err := checkRepair(inc, graph.Batch{ins(v, 0), ins(1, v)}, graph.Batch{ins(w, v), ins(0, w), ins(w, 1), del(0, 1)}); err != nil {
			t.Fatal(err)
		}
	})

	// Two hubs over the same 40 leaves: the edge between them closes 40
	// triangles, and the second batch breaks and remakes the edge and one
	// of them.
	t.Run("hub-hub edge", func(t *testing.T) {
		const leaves = 40
		g := graph.New(leaves+2, false)
		for l := graph.NodeID(2); l < leaves+2; l++ {
			g.InsertEdge(0, l, 1)
			g.InsertEdge(1, l, 1)
		}
		inc := NewInc(g)
		for _, b := range []graph.Batch{{ins(0, 1)}, {del(1, 5), del(1, 0), ins(0, 1), ins(5, 1)}, {del(0, 1), del(0, 2)}} {
			if err := checkRepair(inc, b); err != nil {
				t.Fatalf("%v: %v", b, err)
			}
		}
	})
}

// TestRepairZeroAlloc: once its scratch has grown to a burst-shaped
// batch, a repair allocates nothing.
func TestRepairZeroAlloc(t *testing.T) {
	g := gen.BurstGraph()
	s := gen.NewBurstStream(5, g)
	inc := NewInc(g)
	b := s.Next(gen.BurstBatch)
	applied := g.Clone().Apply(b)
	inc.Apply(b)
	// Back to the graph before the batch and forward again, as one round.
	trip := append(applied.Inverse(), applied...)
	var scope int
	repair := func() { scope = inc.Repair() }
	alloctest.Zero(t, func(measure func(func())) {
		for round := 0; round < 20; round++ {
			inc.Graph().Advance(trip)
			if round < 1 {
				repair()
			} else {
				measure(repair)
			}
			if scope == 0 {
				t.Fatal("empty scope")
			}
		}
	})
	if !inc.Result().Equal(Run(g)) {
		t.Fatal("result differs from Run")
	}
}
