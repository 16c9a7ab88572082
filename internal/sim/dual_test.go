package sim

import (
	"math/rand"
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// naiveDual is the refinement-pass reference for dual simulation.
func naiveDual(g, q *graph.Graph) Relation {
	n, nq := g.NumNodes(), q.NumNodes()
	r := NewRelation(n, nq)
	for v := 0; v < n; v++ {
		for u := 0; u < nq; u++ {
			r.Bits[v*nq+u] = g.Label(graph.NodeID(v)) == q.Label(graph.NodeID(u))
		}
	}
	cond := func(v, u int) bool {
		check := func(qes, ges []graph.Edge) bool {
			for _, qe := range qes {
				found := false
				for _, ge := range ges {
					if r.Bits[int(ge.To)*nq+int(qe.To)] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}
		return check(q.Out(graph.NodeID(u)), g.Out(graph.NodeID(v))) &&
			check(q.In(graph.NodeID(u)), g.In(graph.NodeID(v)))
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			for u := 0; u < nq; u++ {
				if r.Bits[v*nq+u] && !cond(v, u) {
					r.Bits[v*nq+u] = false
					changed = true
				}
			}
		}
	}
	return r
}

func TestDualSimMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, q := randomInputs(seed, 40, 150)
		if !DualSim(g, q).Equal(naiveDual(g, q)) {
			t.Fatalf("seed %d: DualSim != naive reference", seed)
		}
	}
}

func TestDualIsSubsetOfSim(t *testing.T) {
	// Dual simulation refines plain simulation: every dual match is a
	// plain match.
	for seed := int64(0); seed < 10; seed++ {
		g, q := randomInputs(seed, 40, 150)
		dual := DualSim(g, q)
		plain := Simfp(g, q)
		for i := range dual.Bits {
			if dual.Bits[i] && !plain.Bits[i] {
				t.Fatalf("seed %d: dual match missing from plain simulation", seed)
			}
		}
	}
}

func TestDualPrunesParentViolations(t *testing.T) {
	// Pattern: A(a) -> B(b). Data node 2(b) has no a-predecessor: plain
	// simulation keeps it, dual simulation prunes it.
	g := graph.New(3, true)
	g.SetLabel(0, 'a')
	g.SetLabel(1, 'b')
	g.SetLabel(2, 'b')
	g.InsertEdge(0, 1, 1)
	q := graph.New(2, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'b')
	q.InsertEdge(0, 1, 1)
	plain := Simfp(g, q)
	dual := DualSim(g, q)
	if !plain.Match(2, 1) {
		t.Fatal("plain simulation should keep node 2")
	}
	if dual.Match(2, 1) || !dual.Match(1, 1) || !dual.Match(0, 0) {
		t.Fatalf("dual relation wrong: %v", dual.Bits)
	}
}

func TestIncDualAgainstBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, q := randomInputs(seed, 50, 200)
		inc := NewIncDual(g, q)
		rng := rand.New(rand.NewSource(seed + 30))
		for round := 0; round < 6; round++ {
			b := gen.RandomUpdates(rng, inc.Graph(), 15, 0.5)
			inc.Apply(b)
			if !inc.Relation().Equal(DualSim(inc.Graph(), q)) {
				t.Fatalf("seed %d round %d: IncDual != batch", seed, round)
			}
		}
	}
}

// TestIncDualRepairsTargetParent: on a directed graph an inserted edge can
// change nothing at its source and still satisfy its target's parent
// condition. Pattern A(a) -> B(b) -> C(c); data 0(a) -> 2(b) -> 3(c), which
// matches already, and 1(b) -> 4(c), which lacks an a-parent. Inserting
// 0 -> 1 must raise (1, B) and (4, C) together: each needs the other, so
// re-evaluating the source's dependents raises neither. Only h, reached
// by touching the target's pairs, raises them.
func TestIncDualRepairsTargetParent(t *testing.T) {
	g := graph.New(5, true)
	for v, l := range "abbcc" {
		g.SetLabel(graph.NodeID(v), graph.Label(l))
	}
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(1, 4, 1)
	q := graph.New(3, true)
	for u, l := range "abc" {
		q.SetLabel(graph.NodeID(u), graph.Label(l))
	}
	q.InsertEdge(0, 1, 1)
	q.InsertEdge(1, 2, 1)
	inc := NewIncDual(g, q)
	if r := inc.Relation(); r.Match(1, 1) || r.Match(4, 2) || !r.Match(0, 0) {
		t.Fatalf("initial dual relation wrong: %v", r.Bits)
	}
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}})
	if want := naiveDual(inc.Graph(), q); !want.Match(1, 1) || !want.Match(4, 2) || !inc.Relation().Equal(want) {
		t.Fatalf("insertion 0 -> 1: relation %v, want %v", inc.Relation().Bits, want.Bits)
	}
}

func TestDualConditionC2(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, q := randomInputs(seed, 30, 100)
		inst := NewDualInstance(g, q)
		if !fixpoint.CheckContracting[bool](inst) {
			t.Fatalf("seed %d: not contracting", seed)
		}
		eng := fixpoint.New[bool](inst, fixpoint.FIFOOrder)
		eng.Run()
		if !fixpoint.CheckMonotonic[bool](inst, eng.State(), rand.New(rand.NewSource(seed)), 300) {
			t.Fatalf("seed %d: not monotonic", seed)
		}
	}
}
