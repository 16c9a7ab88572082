// Godoc examples for the generic engine, instantiated with the SSSP
// Instance (the paper's running example). Each runs under go test.
package fixpoint_test

import (
	"fmt"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
)

// diamond builds 0 →1→ 1 →1→ 3 with a costlier detour 0 →5→ 2 →5→ 3.
func diamond() *graph.Graph {
	g := graph.New(4, true)
	g.Apply(graph.Batch{
		{Kind: graph.InsertEdge, From: 0, To: 1, W: 1},
		{Kind: graph.InsertEdge, From: 1, To: 3, W: 1},
		{Kind: graph.InsertEdge, From: 0, To: 2, W: 5},
		{Kind: graph.InsertEdge, From: 2, To: 3, W: 5},
	})
	return g
}

func ExampleEngine_IncrementalRun() {
	g := diamond()
	eng := fixpoint.New[int64](&sssp.Instance{G: g, Src: 0}, fixpoint.PriorityOrder)
	eng.Run() // batch fixpoint; records the timestamps h's <_C orders by
	fmt.Println("dist(3) before:", eng.Value(3))

	// ΔG deletes the tight edge 1→3: its head may now be infeasible
	// (its shortest path ran through the deleted edge), so it goes on
	// the touched list. h revises it, then the batch step function
	// resumes — repairing only the affected area, not the whole graph.
	g.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 1, To: 3, W: 1}})
	h0 := eng.IncrementalRun([]fixpoint.Var{3})

	fmt.Println("dist(3) after: ", eng.Value(3))
	fmt.Println("|H0|:", len(h0))
	// Output:
	// dist(3) before: 2
	// dist(3) after:  10
	// |H0|: 1
}
