package sim

import (
	"math/rand"
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// Scenarios targeting the tuned IncSim's timestamp and counter logic.

func TestTunedDeletionSkipsScopeQueue(t *testing.T) {
	// Pure deletions never raise pairs, so h's queue must stay empty and
	// the whole repair runs through the counter cascade.
	g, q := randomInputs(3, 50, 200)
	inc := NewInc(g, q)
	before := inc.Stats().HPops
	inc.Apply(gen.RandomUpdates(rand.New(rand.NewSource(4)), g, 20, 0.0))
	if inc.Stats().HPops != before {
		t.Fatalf("deletions popped %d scope entries", inc.Stats().HPops-before)
	}
	if !inc.Relation().Equal(Simfp(inc.Graph(), q)) {
		t.Fatal("relation wrong after deletions")
	}
}

func TestTunedPatternSinkAlwaysMatches(t *testing.T) {
	// A pattern node with no out-edges matches every label-equal data
	// node regardless of updates.
	g := graph.New(3, true)
	g.SetLabel(0, 'a')
	g.SetLabel(1, 'a')
	g.SetLabel(2, 'b')
	g.InsertEdge(0, 1, 1)
	q := graph.New(1, true)
	q.SetLabel(0, 'a')
	inc := NewInc(g, q)
	if !inc.Relation().Match(0, 0) || !inc.Relation().Match(1, 0) || inc.Relation().Match(2, 0) {
		t.Fatal("initial sink matches wrong")
	}
	inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}})
	if !inc.Relation().Match(0, 0) || !inc.Relation().Match(1, 0) {
		t.Fatal("sink matches lost after deletion")
	}
}

func TestTunedCountersStayConsistent(t *testing.T) {
	// After many rounds, rebuild counters from scratch and compare — the
	// incremental bookkeeping must not drift.
	g, q := randomInputs(5, 40, 160)
	inc := NewInc(g, q)
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 15; round++ {
		inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 15, 0.5))
	}
	nq := q.NumNodes()
	n := inc.Graph().NumNodes()
	want := make([]int32, n*nq)
	for v := 0; v < n; v++ {
		for _, ge := range inc.Graph().Out(graph.NodeID(v)) {
			for u := 0; u < nq; u++ {
				if inc.r[int(ge.To)*nq+u] {
					want[v*nq+u]++
				}
			}
		}
	}
	for i := range want {
		if inc.cnt[i] != want[i] {
			t.Fatalf("counter %d drifted: have %d want %d", i, inc.cnt[i], want[i])
		}
	}
}

func TestTunedTimestampsPartitionTrueFalse(t *testing.T) {
	// Invariant: ts == tsTrue iff the pair is currently true.
	g, q := randomInputs(7, 40, 160)
	inc := NewInc(g, q)
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 10; round++ {
		inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 15, 0.5))
		for i, b := range inc.r {
			if b != (inc.ts[i] == tsTrue) {
				t.Fatalf("round %d: ts/truth mismatch at pair %d", round, i)
			}
		}
	}
}

func TestTunedInsertionHeavyStream(t *testing.T) {
	// Growth-only workload: matches only ever appear; every round must
	// land on the batch answer.
	g, q := randomInputs(9, 60, 60) // sparse start
	inc := NewInc(g, q)
	rng := rand.New(rand.NewSource(10))
	for round := 0; round < 12; round++ {
		inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 25, 1.0))
		if !inc.Relation().Equal(Simfp(inc.Graph(), q)) {
			t.Fatalf("round %d: relation wrong", round)
		}
	}
}

func TestTunedVertexInsertion(t *testing.T) {
	// The inserted vertex is a node the graph is built with, still isolated.
	g0, q := randomInputs(11, 30, 90)
	g := graph.New(g0.NumNodes()+1, true)
	g0.Edges(func(u, v graph.NodeID, w int64) { g.InsertEdge(u, v, w) })
	for v := 0; v < g0.NumNodes(); v++ {
		g.SetLabel(graph.NodeID(v), g0.Label(graph.NodeID(v)))
	}
	v := graph.NodeID(g0.NumNodes())
	g.SetLabel(v, q.Label(0))
	inc := NewInc(g, q)
	inc.Apply(graph.Batch{
		{Kind: graph.InsertEdge, From: v, To: 0, W: 1},
		{Kind: graph.InsertEdge, From: 1, To: v, W: 1},
	})
	if !inc.Relation().Equal(Simfp(inc.Graph(), q)) {
		t.Fatal("relation wrong after vertex insertion")
	}
}

// TestIncDeleteThenInsertAtOneNode: a batch that first deletes and then
// inserts at node 0 touches 0's pairs twice, the first time as
// retraction-only. The insertion must keep them potentially infeasible —
// the scope's flag is sticky — or (0, A), which the new edge 0 -> 1 now
// supports, is never revised and stays false.
func TestIncDeleteThenInsertAtOneNode(t *testing.T) {
	g := graph.New(4, true)
	g.SetLabel(0, 'a')
	g.SetLabel(1, 'b')
	g.SetLabel(3, 'c')
	g.InsertEdge(0, 3, 1)
	q := graph.New(2, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'b')
	q.InsertEdge(0, 1, 1)
	inc := NewInc(g, q)
	if inc.Relation().Match(0, 0) {
		t.Fatal("0 matches A before it has a b-successor")
	}
	inc.Apply(graph.Batch{
		{Kind: graph.DeleteEdge, From: 0, To: 3},
		{Kind: graph.InsertEdge, From: 0, To: 1, W: 1},
	})
	if want := Naive(inc.Graph(), q); !want.Match(0, 0) || !inc.Relation().Equal(want) {
		t.Fatalf("relation %v, want %v", inc.Relation().Bits, want.Bits)
	}
}

// TestLedgerZeroAlloc extends fixpoint's guarantee of the same name to
// IncSim: a Repair that raises a pair in h, and one that retracts it in the
// cascade — both written to the ledger's tracker, both settled as CHANGED —
// allocate nothing.
func TestLedgerZeroAlloc(t *testing.T) {
	g := graph.New(2, true)
	g.SetLabel(0, 'a')
	g.SetLabel(1, 'b')
	q := graph.New(2, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'b')
	q.InsertEdge(0, 1, 1)
	inc := NewInc(g, q)
	repair := func() { inc.Repair() }
	alloctest.Zero(t, func(measure func(func())) {
		for round := 0; round < 40; round++ {
			b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}
			if round%2 == 1 {
				b[0].Kind = graph.DeleteEdge
			}
			inc.Graph().Advance(b)
			before := inc.Stats().Ledger.Changed
			if round < 2 { // the first raise and the first retraction size the scope buffers
				repair()
			} else {
				measure(repair)
			}
			if inc.Relation().Match(0, 0) != (round%2 == 0) || inc.Stats().Ledger.Changed != before+1 || len(inc.Written()) != 1 {
				t.Fatalf("round %d: match(0,0) %v, CHANGED +%d, written %v", round, inc.Relation().Match(0, 0), inc.Stats().Ledger.Changed-before, inc.Written())
			}
		}
	})
}
