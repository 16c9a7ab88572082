package incgraph

// The headline guarantee, measured end to end: for every query class, a
// unit update on a large graph repairs an affected area that is a
// vanishing fraction of the graph. Each maintainer's Apply returns its
// affected-area proxy (|H⁰|, the PE set, or the revisited region).

import (
	"testing"

	"incgraph/internal/bc"
)

func TestRelativeBoundednessAcrossClasses(t *testing.T) {
	const n = 30_000
	dir := PowerLawGraph(41, n, 8, true)
	und := PowerLawGraph(42, n, 8, false)

	// One deletion and one insertion, sampled validly per graph.
	delDir := RandomUpdates(1, dir, 1, 0.0)
	insDir := RandomUpdates(2, dir, 1, 1.0)
	delUnd := RandomUpdates(3, und, 1, 0.0)
	insUnd := RandomUpdates(4, und, 1, 1.0)

	check := func(name string, affected, limit int) {
		t.Helper()
		if affected > limit {
			t.Errorf("%s: unit update affected %d variables (limit %d of %d nodes)",
				name, affected, limit, n)
		}
	}

	{
		inc := NewIncSSSP(dir.Clone(), 0)
		check("IncSSSP/delete", inc.Apply(delDir), n/10)
		check("IncSSSP/insert", inc.Apply(insDir), n/10)
	}
	{
		inc := NewIncCC(und.Clone())
		check("IncCC/delete", inc.Apply(delUnd), n/10)
		check("IncCC/insert", inc.Apply(insUnd), n/10)
	}
	{
		q := RandomPattern(5, 4, 6, 5)
		inc := NewIncSim(dir.Clone(), q)
		check("IncSim/delete", inc.Apply(delDir), 4*n/10)
		check("IncSim/insert", inc.Apply(insDir), 4*n/10)
	}
	{
		inc := NewIncLCC(und.Clone())
		check("IncLCC/delete", inc.Apply(delUnd), n/10)
		check("IncLCC/insert", inc.Apply(insUnd), n/10)
	}
	{
		// DFS: non-tree deletions are free; insertions can replay a
		// traversal suffix (the large-AFF class the paper reports).
		inc := NewIncDFS(dir.Clone())
		tr := inc.Tree()
		// Find a non-tree edge to delete: any edge (u,v) with parent[v]!=u.
		var del Batch
		dir.Edges(func(u, v NodeID, w int64) {
			if del == nil && tr.Parent[v] != u {
				del = Batch{{Kind: DeleteEdge, From: u, To: v}}
			}
		})
		if del == nil {
			t.Fatal("no non-tree edge found")
		}
		if got := inc.Apply(del); got != 0 {
			t.Errorf("IncDFS/non-tree delete replayed %d intervals, want 0", got)
		}
	}
	{
		// BC on a graph of two equal components: updating one must not
		// revisit the other.
		two := NewGraph(2*n, false)
		und.Edges(func(u, v NodeID, w int64) {
			two.InsertEdge(u, v, w)
			two.InsertEdge(u+NodeID(n), v+NodeID(n), w)
		})
		inc := NewIncBC(two)
		got := inc.Apply(delUnd) // touches the first copy only
		if got > n+1 {
			t.Errorf("IncBC: unit update revisited %d nodes across component boundary", got)
		}
		if !inc.Result().Equivalent(bc.Run(inc.Graph()), inc.Graph()) {
			t.Error("IncBC result wrong")
		}
	}
}
