package graph

import "testing"

// TestApplyCountedIdempotent checks the idempotency and accounting
// contract in both directednesses: duplicate inserts and absent deletes
// are counted no-ops, applying the same batch twice changes nothing the
// second time, and the counts agree between directed and undirected
// graphs for orientation-free inputs.
func TestApplyCountedIdempotent(t *testing.T) {
	batch := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 2},
		{Kind: InsertEdge, From: 0, To: 1, W: 9}, // dup insert
		{Kind: InsertEdge, From: 1, To: 2, W: 4},
		{Kind: DeleteEdge, From: 2, To: 3}, // absent delete
		{Kind: DeleteEdge, From: 0, To: 1}, // real delete
		{Kind: DeleteEdge, From: 0, To: 1}, // now absent
	}
	for _, directed := range []bool{false, true} {
		g := New(4, directed)
		s := g.ApplyCounted(batch)
		if s.Inserted != 2 || s.Deleted != 1 {
			t.Fatalf("directed=%v: inserted=%d deleted=%d, want 2/1", directed, s.Inserted, s.Deleted)
		}
		if s.DupInserts != 1 || s.AbsentDeletes != 2 || s.Malformed != 0 {
			t.Fatalf("directed=%v: dup=%d absent=%d malformed=%d, want 1/2/0",
				directed, s.DupInserts, s.AbsentDeletes, s.Malformed)
		}
		if s.Skipped() != 3 {
			t.Fatalf("directed=%v: skipped=%d, want 3", directed, s.Skipped())
		}
		if g.NumEdges() != 1 || !g.HasEdge(1, 2) {
			t.Fatalf("directed=%v: wrong resulting graph", directed)
		}
		// Re-applying the already-applied sub-batch is a pure no-op.
		again := g.ApplyCounted(Batch{{Kind: InsertEdge, From: 1, To: 2, W: 4}})
		if len(again.Applied) != 0 || again.DupInserts != 1 {
			t.Fatalf("directed=%v: reapply not idempotent: %+v", directed, again)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}

// TestApplyCountedMirroredOrientation checks the undirected-specific
// case: a duplicate insert and a delete addressed by the *reversed*
// endpoint pair must behave exactly like the forward orientation.
func TestApplyCountedMirroredOrientation(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(0, 1, 5)
	s := g.ApplyCounted(Batch{
		{Kind: InsertEdge, From: 1, To: 0, W: 7}, // same undirected edge
		{Kind: DeleteEdge, From: 1, To: 0},       // same undirected edge
		{Kind: DeleteEdge, From: 1, To: 0},       // now absent
	})
	if s.DupInserts != 1 || s.Deleted != 1 || s.AbsentDeletes != 1 {
		t.Fatalf("dup=%d deleted=%d absent=%d, want 1/1/1", s.DupInserts, s.Deleted, s.AbsentDeletes)
	}
	if s.Applied[0].W != 5 {
		t.Fatalf("reversed delete recorded weight %d, want the stored 5", s.Applied[0].W)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edge survived mirrored delete")
	}
}

// TestApplyCountedNeverPanics hurls malformed updates — out-of-range
// ids, self-loops, unknown kinds — at both graph kinds and checks they
// are counted, skipped, and harmless.
func TestApplyCountedNeverPanics(t *testing.T) {
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
		s := g.ApplyCounted(bad)
		if s.Malformed != len(bad) {
			t.Fatalf("directed=%v: malformed=%d, want %d", directed, s.Malformed, len(bad))
		}
		if len(s.Applied) != 0 || g.NumEdges() != 1 {
			t.Fatalf("directed=%v: malformed input mutated the graph", directed)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}
