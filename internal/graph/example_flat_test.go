package graph_test

import (
	"fmt"

	"incgraph/internal/graph"
)

// ExampleFlat shows the life of a flat adjacency view: rows laid out
// sorted with one free slot each, a batch edited into them in place, and
// compaction reclaiming the space the edits opened.
func ExampleFlat() {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 5)
	g.InsertEdge(0, 2, 7)
	g.InsertEdge(1, 2, 1)

	f := graph.NewFlat(g) // every row sorted, with one free slot
	f.SetCompactThreshold(1e9)

	// Mutate the graph through a batch and stage exactly the applied
	// updates: the insert fills row 0's free slot, the deletes shift rows
	// 0, 1 and 2 left.
	b := graph.Batch{
		{Kind: graph.InsertEdge, From: 0, To: 3, W: 9},
		{Kind: graph.DeleteEdge, From: 0, To: 1},
		{Kind: graph.DeleteEdge, From: 1, To: 2},
	}
	f.Stage(g, g.Apply(b))

	// A row is one sorted span: targets and their weights, side by side.
	ts, ws, _, _ := f.OutSpans(0)
	for k, v := range ts {
		fmt.Printf("0 -> %d (w=%d)\n", v, ws[k])
	}
	fmt.Printf("dead space: %.2f of the live entries\n", f.OverlayRatio())

	// Compaction lays the rows out again and reclaims it.
	f.Compact(g)
	fmt.Printf("after compact: %.2f, %d compaction\n", f.OverlayRatio(), f.Compactions())

	// Output:
	// 0 -> 2 (w=7)
	// 0 -> 3 (w=9)
	// dead space: 0.40 of the live entries
	// after compact: 0.00, 1 compaction
}
