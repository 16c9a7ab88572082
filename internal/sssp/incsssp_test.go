package sssp

import (
	"math/rand"
	"reflect"
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// Scenarios targeting the tuned IncSSSP's anchor logic.

func TestTunedTightDeletionWithTieSurvives(t *testing.T) {
	// Two equally short paths to node 3; deleting one tight edge must not
	// change the distance, and h must confirm feasibility without resets.
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(1, 3, 1)
	g.InsertEdge(2, 3, 1)
	inc := NewInc(g, 0)
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 3}})
	if inc.Dist()[3] != 2 {
		t.Fatalf("dist[3] = %d, want 2 via the surviving path", inc.Dist()[3])
	}
	if inc.Stats().HResets != 0 {
		t.Fatalf("tie deletion caused %d resets", inc.Stats().HResets)
	}
}

func TestTunedNonTightDeletionFree(t *testing.T) {
	// Deleting a slack edge must not even enter h's queue.
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(1, 2, 9) // slack: 0→2 direct is shorter
	inc := NewInc(g, 0)
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 2}})
	if inc.Stats().HPops != 0 {
		t.Fatalf("slack deletion popped %d h entries", inc.Stats().HPops)
	}
	if inc.Dist()[2] != 1 {
		t.Fatalf("dist[2] = %d", inc.Dist()[2])
	}
}

func TestTunedCascadeDepth(t *testing.T) {
	// Cutting the head of a long chain must cascade resets down the whole
	// chain (the genuine affected area), then resume re-derives ∞.
	const n = 50
	g := graph.New(n, true)
	for v := 0; v+1 < n; v++ {
		g.InsertEdge(graph.NodeID(v), graph.NodeID(v+1), 1)
	}
	inc := NewInc(g, 0)
	h0 := inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}})
	if h0 != n-1 {
		t.Fatalf("|H0| = %d, want %d (the whole chain)", h0, n-1)
	}
	for v := 1; v < n; v++ {
		if inc.Dist()[v] != Infinity {
			t.Fatalf("dist[%d] = %d after disconnection", v, inc.Dist()[v])
		}
	}
	// Reconnect at the far end: improvement flows back without h.
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: graph.NodeID(n - 1), W: 5}})
	if inc.Dist()[n-1] != 5 {
		t.Fatalf("dist[last] = %d after reconnect", inc.Dist()[n-1])
	}
}

func TestTunedWeightDecreaseViaNet(t *testing.T) {
	// A weight change arrives as delete+insert in one batch; Net collapses
	// and the head improves through the relax seed.
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 9)
	g.InsertEdge(1, 2, 1)
	inc := NewInc(g, 0)
	inc.Apply(graph.Batch{
		{Kind: graph.DeleteEdge, From: 0, To: 1},
		{Kind: graph.InsertEdge, From: 0, To: 1, W: 2},
	})
	if !reflect.DeepEqual(inc.Dist(), []int64{0, 2, 3}) {
		t.Fatalf("dist = %v", inc.Dist())
	}
}

func TestTunedMixedStormAgainstBellmanFord(t *testing.T) {
	// Heavier randomized storm than the generic maintainer check, with the
	// independent Bellman–Ford reference.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.PowerLaw(rng, 300, 8, true)
		inc := NewInc(g, 0)
		for round := 0; round < 12; round++ {
			inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 40, 0.5))
			if !reflect.DeepEqual(inc.Dist(), BellmanFord(inc.Graph(), 0)) {
				t.Fatalf("seed %d round %d: diverged from Bellman–Ford", seed, round)
			}
		}
	}
}

// TestTunedRepairTakesOneRound: a Repair repairs for exactly the round
// after the last it took. Two Advances before one Repair skip a round, and
// a second Repair takes one twice; either would repair from the wrong
// updates, so the graph's guard panics instead.
func TestTunedRepairTakesOneRound(t *testing.T) {
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	inc := NewInc(g, 0)
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		inc.Repair()
	}
	inc.Graph().Advance(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 2}})
	inc.Graph().Advance(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 3, W: 4}})
	mustPanic("a Repair two rounds behind")

	inc = NewInc(g, 0)
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 2, W: 1}})
	mustPanic("a second Repair of one round")
	if want := Dijkstra(g, 0); !reflect.DeepEqual(inc.Dist(), want) {
		t.Fatalf("dist = %v, want %v", inc.Dist(), want)
	}
}

func TestTunedUndirected(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 60, 180, false)
		inc := NewInc(g, 0)
		for round := 0; round < 6; round++ {
			inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 20, 0.5))
			if !reflect.DeepEqual(inc.Dist(), Dijkstra(inc.Graph(), 0)) {
				t.Fatalf("seed %d round %d: undirected diverged", seed, round)
			}
		}
	}
}

// TestLedgerZeroAlloc extends fixpoint's guarantee of the same name to
// IncSSSP: a Repair that lowers distances — every one written to the
// ledger's tracker and settled as CHANGED — allocates nothing. (The Repair
// that undoes it revises nodes in h and appends them to a per-call list,
// which is not the ledger's; it is not measured.)
func TestLedgerZeroAlloc(t *testing.T) {
	const n = 12
	g := graph.New(n, true)
	for v := graph.NodeID(1); v < n; v++ {
		g.InsertEdge(v-1, v, 10)
	}
	inc := NewInc(g, 0)
	shortcut := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 6, W: 1}}
	repair := func() { inc.Repair() }
	alloctest.Zero(t, func(measure func(func())) {
		for round := 0; round < 20; round++ {
			inc.Graph().Advance(shortcut)
			before := inc.Stats().Ledger.Changed
			if round == 0 { // the first repair sizes the step-function queue
				repair()
			} else {
				measure(repair)
			}
			if got := inc.Stats().Ledger.Changed - before; got != n-6 || len(inc.Written()) != n-6 || inc.Dist()[n-1] != 1+10*(n-7) {
				t.Fatalf("round %d: CHANGED +%d, written %v, dist %v", round, got, inc.Written(), inc.Dist())
			}
			inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 6}})
		}
	})
}
