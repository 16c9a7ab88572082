package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diffModel reports the first difference between g and the indexed
// reference: counts and every row entry by entry — the same
// neighbors is not enough, generated streams and golden ledgers read the
// rows in order.
func diffModel(g *Graph, m *mapGraph) error {
	if g.NumNodes() != len(m.out) || g.NumEdges() != m.numEdges {
		return fmt.Errorf("counts: %d nodes %d edges, reference %d/%d", g.NumNodes(), g.NumEdges(), len(m.out), m.numEdges)
	}
	for v := range m.out {
		if !slices.Equal(g.Out(NodeID(v)), m.out[v]) {
			return fmt.Errorf("out row %d is %v, reference %v", v, g.Out(NodeID(v)), m.out[v])
		}
		if m.directed && !slices.Equal(g.In(NodeID(v)), m.in[v]) {
			return fmt.Errorf("in row %d is %v, reference %v", v, g.In(NodeID(v)), m.in[v])
		}
	}
	return g.CheckConsistent()
}

// TestGraphAgainstMapModel drives Graph and the map-indexed reference
// through the same random programs over the whole mutating surface —
// InsertEdge, DeleteEdge, Apply, Clone —
// with ids that are no node of the graph mixed in, and requires
// equal answers from every call and, after every step, equal rows in equal
// order and a consistent graph.
func TestGraphAgainstMapModel(t *testing.T) {
	program := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g, m := New(8, directed), newMapGraph(8, directed)
		var origG *Graph // what the last Clone was taken from
		var origM *mapGraph
		node := func() NodeID {
			switch n := g.NumNodes(); rng.Intn(12) {
			case 0:
				return []NodeID{-1, NodeID(n), math.MaxInt32, math.MinInt32}[rng.Intn(4)]
			default:
				return NodeID(rng.Intn(n))
			}
		}
		for step := 0; step < 300; step++ {
			u, v, w := node(), node(), int64(rng.Intn(9))
			var got, want any
			op := ""
			switch k := rng.Intn(20); {
			case k < 7:
				op = fmt.Sprintf("InsertEdge(%d,%d,%d)", u, v, w)
				got, want = g.InsertEdge(u, v, w), m.InsertEdge(u, v, w)
			case k < 12:
				op = fmt.Sprintf("DeleteEdge(%d,%d)", u, v)
				got, want = g.DeleteEdge(u, v), m.DeleteEdge(u, v)
			case k < 19:
				b := make(Batch, 1+rng.Intn(8))
				for i := range b {
					b[i] = Update{Kind: UpdateKind(rng.Intn(9) / 4), From: node(), To: node(), W: int64(rng.Intn(9))}
				}
				op = fmt.Sprintf("Apply(%v)", b)
				got, want = fmt.Sprint(g.Apply(b)), fmt.Sprint(m.Apply(b))
			default:
				op = "Clone"
				origG, origM = g, m
				g, m = g.Clone(), m.Clone()
			}
			if got != want {
				t.Errorf("seed %d directed=%v step %d: %s = %v, reference %v", seed, directed, step, op, got, want)
				return false
			}
			if err := diffModel(g, m); err != nil {
				t.Errorf("seed %d directed=%v step %d after %s: %v", seed, directed, step, op, err)
				return false
			}
			// Reads, hostile ids included, and the graph a clone left behind.
			a, b := node(), node()
			if g.HasEdge(a, b) != m.HasEdge(a, b) || g.Weight(a, b) != m.Weight(a, b) {
				t.Errorf("seed %d directed=%v step %d: HasEdge/Weight(%d,%d) = %v/%d, reference %v/%d",
					seed, directed, step, a, b, g.HasEdge(a, b), g.Weight(a, b), m.HasEdge(a, b), m.Weight(a, b))
				return false
			}
			if origG != nil {
				if err := diffModel(origG, origM); err != nil {
					t.Errorf("seed %d directed=%v step %d: an edit of the clone reached the original: %v", seed, directed, step, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(program, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeLookupsOutOfRange: ids that are no node of the graph name no
// edge. The position index used to answer that for free; the row scan has
// to check both endpoints before it indexes a row.
func TestEdgeLookupsOutOfRange(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := New(3, directed)
		g.InsertEdge(0, 1, 4)
		g.InsertEdge(1, 2, 5)
		hostile := []NodeID{-1, 3, math.MaxInt32, math.MinInt32}
		for _, bad := range hostile {
			for _, ok := range []NodeID{0, 1, bad} {
				for _, p := range [][2]NodeID{{bad, ok}, {ok, bad}} {
					u, v := p[0], p[1]
					if g.HasEdge(u, v) || g.Weight(u, v) != Infinity || g.DeleteEdge(u, v) || g.InsertEdge(u, v, 1) {
						t.Fatalf("directed=%v: (%d,%d) read as an edge", directed, u, v)
					}
					if _, removed := g.RemoveEdge(u, v); removed {
						t.Fatalf("directed=%v: RemoveEdge(%d,%d) removed something", directed, u, v)
					}
					if applied := g.Apply(Batch{{Kind: InsertEdge, From: u, To: v, W: 1}, {Kind: DeleteEdge, From: u, To: v}}); len(applied) != 0 {
						t.Fatalf("directed=%v: Apply on (%d,%d) applied %v", directed, u, v, applied)
					}
				}
			}
		}
		if g.NumEdges() != 2 || g.Weight(0, 1) != 4 || g.Weight(1, 2) != 5 {
			t.Fatalf("directed=%v: hostile ids changed the graph", directed)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}
