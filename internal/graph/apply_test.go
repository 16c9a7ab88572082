package graph

import (
	"slices"
	"testing"
)

// TestApplyIdempotent checks the idempotency contract in both
// directednesses: duplicate inserts and absent deletes are left out of the
// applied list, applying the same batch twice changes nothing the second
// time, and directed and undirected graphs apply orientation-free inputs
// alike.
func TestApplyIdempotent(t *testing.T) {
	batch := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 2},
		{Kind: InsertEdge, From: 0, To: 1, W: 9}, // dup insert
		{Kind: InsertEdge, From: 1, To: 2, W: 4},
		{Kind: DeleteEdge, From: 2, To: 3}, // absent delete
		{Kind: DeleteEdge, From: 0, To: 1}, // real delete
		{Kind: DeleteEdge, From: 0, To: 1}, // now absent
	}
	want := Batch{batch[0], batch[2], {Kind: DeleteEdge, From: 0, To: 1, W: 2}}
	for _, directed := range []bool{false, true} {
		g := New(4, directed)
		if applied := g.Apply(batch); !slices.Equal(applied, want) {
			t.Fatalf("directed=%v: applied %v, want %v", directed, applied, want)
		}
		if g.NumEdges() != 1 || !g.HasEdge(1, 2) {
			t.Fatalf("directed=%v: wrong resulting graph", directed)
		}
		// Re-applying the already-applied sub-batch is a pure no-op.
		if again := g.Apply(Batch{{Kind: InsertEdge, From: 1, To: 2, W: 4}}); len(again) != 0 {
			t.Fatalf("directed=%v: reapply not idempotent: %v", directed, again)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}

// TestApplyMirroredOrientation checks the undirected-specific case: a
// duplicate insert and a delete addressed by the *reversed* endpoint pair
// must behave exactly like the forward orientation.
func TestApplyMirroredOrientation(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(0, 1, 5)
	applied := g.Apply(Batch{
		{Kind: InsertEdge, From: 1, To: 0, W: 7}, // same undirected edge
		{Kind: DeleteEdge, From: 1, To: 0},       // same undirected edge
		{Kind: DeleteEdge, From: 1, To: 0},       // now absent
	})
	// The stored weight, not the duplicate insert's.
	if want := (Batch{{Kind: DeleteEdge, From: 1, To: 0, W: 5}}); !slices.Equal(applied, want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edge survived mirrored delete")
	}
}

// TestApplyNeverPanics hurls malformed updates — out-of-range ids,
// self-loops, unknown kinds — at both graph kinds and checks they are
// skipped and harmless.
func TestApplyNeverPanics(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := New(4, directed)
		g.InsertEdge(0, 1, 1)
		bad := Batch{
			{Kind: InsertEdge, From: -1, To: 1, W: 1},
			{Kind: InsertEdge, From: 0, To: 99, W: 1},
			{Kind: DeleteEdge, From: 99, To: 0},
			{Kind: InsertEdge, From: 2, To: 2, W: 1}, // self-loop
			{Kind: DeleteEdge, From: 1, To: 1},       // self-loop
			{Kind: UpdateKind(9), From: 0, To: 1},    // unknown kind
		}
		if applied := g.Apply(bad); len(applied) != 0 || g.NumEdges() != 1 {
			t.Fatalf("directed=%v: malformed input applied %v", directed, applied)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}
