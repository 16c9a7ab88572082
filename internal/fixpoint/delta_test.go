package fixpoint

import (
	"reflect"
	"testing"
)

// Tests for the refined incremental API: feasibility hints and push seeds.

func TestIncrementalRunDeltaPushSeeds(t *testing.T) {
	m := paperGraph()
	e := New[int64](pushMinPlus{m}, PriorityOrder)
	e.Run()

	// Insert an improving edge (0, 7) with weight 1: dist[7] drops 4 → 1.
	// The tail 0 is a push seed; no variable is touched infeasibly.
	m.addEdge(0, 7, 1)
	h0 := e.IncrementalRunDelta(nil, []Var{0})
	if len(h0) != 0 {
		t.Fatalf("pure improvement produced H0 = %v", h0)
	}
	if e.State().Val[7] != 1 {
		t.Fatalf("dist[7] = %d, want 1", e.State().Val[7])
	}
	if !e.Fixpoint() {
		t.Fatal("not a fixpoint after push-seed repair")
	}
}

func TestIncrementalRunDeltaMixed(t *testing.T) {
	m := paperGraph()
	e := New[int64](pushMinPlus{m}, PriorityOrder)
	e.Run()

	// Delete the tight edge (2,5) (dist[5] was 2 via 2) and insert (0,5,9).
	m.delEdge(2, 5)
	m.addEdge(0, 5, 9)
	e.IncrementalRunDelta(
		[]Touched{{X: 5, MaybeInfeasible: true}},
		[]Var{0},
	)
	fresh := New[int64](pushMinPlus{m}, PriorityOrder)
	fresh.Run()
	if !reflect.DeepEqual(e.State().Val, fresh.State().Val) {
		t.Fatalf("mixed delta repair %v != fresh %v", e.State().Val, fresh.State().Val)
	}
}

// TestVertexInsertion: a vertex insertion (§4) is the insertions of the
// first edges at a variable the instance was built with, still bottom.
func TestVertexInsertion(t *testing.T) {
	m := newMinPlus(5, 0)
	m.addEdge(0, 1, 2)
	e := New[int64](m, PriorityOrder)
	e.Run()
	if want := []int64{0, 2, inf, inf, inf}; !reflect.DeepEqual(e.State().Val, want) {
		t.Fatalf("vals before the insertion = %v, want %v", e.State().Val, want)
	}

	// Wire the isolated variables 3 and 4 up, repair.
	m.addEdge(1, 3, 4)
	m.addEdge(3, 4, 1)
	e.IncrementalRunDelta(nil, []Var{1, 3})
	want := []int64{0, 2, inf, 6, 7}
	if !reflect.DeepEqual(e.State().Val, want) {
		t.Fatalf("vals after the insertion = %v, want %v", e.State().Val, want)
	}
}

// TestHRevisionKeepsAnchorOrder: a variable h revises keeps its stamp,
// because h derives the new value from inputs stamped before it. Stamping
// it afresh would put it after a dependent h evaluated but did not revise
// — one whose old value an inserted edge from the revised variable still
// matches — and the next round's h would not reach that dependent.
//
// 0→1 (5), 1→2 (6), 1→3 (9), 3→4 (1) give 1=5, 2=11, 3=14, 4=15. The first
// round re-weights 0→1 to 6 and inserts 2→4 (3): h raises 1, 2 and 3 by
// one and finds 4's 15 matched by 2's 12 + 3. The second round re-weights
// 0→1 to 7: 2 rises to 13 and 4 must follow it to 16.
func TestHRevisionKeepsAnchorOrder(t *testing.T) {
	m := newMinPlus(5, 0)
	m.addEdge(0, 1, 5)
	m.addEdge(1, 2, 6)
	m.addEdge(1, 3, 9)
	m.addEdge(3, 4, 1)
	e := New[int64](m, PriorityOrder)
	e.Run()
	for round, w := range []int64{6, 7} {
		m.delEdge(0, 1)
		m.addEdge(0, 1, w)
		seeds := []Var{0}
		if round == 0 {
			m.addEdge(2, 4, 3)
			seeds = append(seeds, 2)
		}
		e.IncrementalRunDelta([]Touched{{X: 1, MaybeInfeasible: true}}, seeds)
		fresh := New[int64](m, PriorityOrder)
		fresh.Run()
		if !reflect.DeepEqual(e.State().Val, fresh.State().Val) {
			t.Fatalf("round %d: %v, want %v", round, e.State().Val, fresh.State().Val)
		}
		if err := CheckOrder[int64](m, e.State()); err != nil {
			t.Fatalf("round %d: %v (stamps %v)", round, err, e.State().TS)
		}
	}
}
