package lcc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// stageRef is one piece of a staged round as the reference sees it: the
// graph before the piece and the updates of it that changed that graph,
// found by applying the piece to a copy.
type stageRef struct {
	pre     *graph.Graph
	applied graph.Batch
}

// inputSetScope is the scope by definition, with no adjacency scan shared
// with the implementation: node w is in it when an applied update's edge
// (u, v) is in the input set of one of w's variables — w is u or v (d_w,
// and λ_w through the edges at w), or u and v are both neighbors of w
// (λ_w through the edges among w's neighbors), neighbors as of the graph
// before the piece for a deletion and as of the final graph for an
// insertion.
func inputSetScope(stages []stageRef, final *graph.Graph) []int32 {
	var scope []int32
	for w := graph.NodeID(0); int(w) < final.NumNodes(); w++ {
		in := false
		for _, s := range stages {
			for _, u := range s.applied {
				side := final
				if u.Kind == graph.DeleteEdge {
					side = s.pre
				}
				if w == u.From || w == u.To || side.HasEdge(w, u.From) && side.HasEdge(w, u.To) {
					in = true
				}
			}
		}
		if in {
			scope = append(scope, int32(w))
		}
	}
	return scope
}

func sorted(s []int32) []int32 {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// checkRepair advances inc's graph by the batches as one round, their
// concatenation, repairs once, and holds the outcome against the
// definitions: the status against Run and Brute, the written scope
// against inputSetScope over the batches one by one, the ledger against a
// before/after comparison of the status.
func checkRepair(inc *Inc, batches ...graph.Batch) error {
	before := inc.Result().clone()
	st0 := inc.Stats()
	var stages []stageRef
	var round graph.Batch
	applied := 0
	ref := inc.Graph().Clone()
	for _, b := range batches {
		pre := ref.Clone()
		stages = append(stages, stageRef{pre, ref.Apply(b)})
		applied += len(stages[len(stages)-1].applied)
		round = append(round, b...)
	}
	inc.Graph().Advance(round)
	pe := inc.Repair()
	g := inc.Graph()

	if want := Run(g); !inc.Result().Equal(want) {
		return fmt.Errorf("result differs from Run: deg %v tri %v, want deg %v tri %v", inc.Result().Deg, inc.Result().Tri, want.Deg, want.Tri)
	}
	if !inc.Result().Equal(Brute(g)) {
		return fmt.Errorf("result differs from Brute")
	}
	want := inputSetScope(stages, g)
	if got := sorted(inc.Written()); !slices.Equal(got, want) {
		return fmt.Errorf("scope %v, the input-set rule gives %v", got, want)
	}
	if pe != len(want) {
		return fmt.Errorf("Repair returned %d for a scope of %d", pe, len(want))
	}

	// CHANGED ⊆ written ⊆ AFF, the last two being one set here.
	inScope := map[int32]bool{}
	for _, v := range inc.Written() {
		inScope[v] = true
	}
	changed := int64(0)
	for v := range before.Deg {
		if before.Deg[v] != inc.Result().Deg[v] || before.Tri[v] != inc.Result().Tri[v] {
			changed++
			if !inScope[int32(v)] {
				return fmt.Errorf("node %d changed outside the scope", v)
			}
		}
	}
	led := inc.Stats().Sub(st0).Ledger
	wantLed := led
	wantLed.Runs, wantLed.Touched, wantLed.Changed, wantLed.Aff = 0, int64(applied), changed, int64(len(want))
	if applied > 0 {
		wantLed.Runs = 1
	}
	if led != wantLed || led.AffEdges != 0 {
		return fmt.Errorf("ledger %+v, want runs/touched/changed/aff = %d/%d/%d/%d", led, wantLed.Runs, applied, changed, len(want))
	}
	return nil
}

// denseGraph draws a small graph in which most edges sit in triangles.
func denseGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.InsertEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
	}
	return g
}

// rawBatch draws updates without looking at the graph, so a good share
// of them change nothing, repeat an edge of the same batch, or undo one.
func rawBatch(rng *rand.Rand, n, size int) graph.Batch {
	var b graph.Batch
	for len(b) < size {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		kind := graph.InsertEdge
		if rng.Intn(2) == 0 {
			kind = graph.DeleteEdge
		}
		// u == v is drawn too: a self-loop is one more no-op.
		b = append(b, graph.Update{Kind: kind, From: u, To: v, W: 1})
		if rng.Intn(6) == 0 {
			// The opposite update right behind it, the edge written the
			// other way round.
			b = append(b, graph.Update{Kind: graph.InsertEdge + graph.DeleteEdge - kind, From: v, To: u, W: 1})
		}
	}
	return b
}

// TestScopeIsInputSet is the scope property test: on small triangle-dense
// graphs, under every compaction regime (so rows are read freshly laid
// out, edited in place and moved), one to three batches in each round.
// The graph is built with four isolated nodes past the first n, which
// the batches reach one at a time: vertex insertions.
func TestScopeIsInputSet(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		inc := NewInc(withIsolated(denseGraph(rng, n, 0.2+0.4*rng.Float64()), 4))
		inc.Graph().Flat().SetCompactThreshold([]float64{0, 0.05, graph.DefaultCompactThreshold, math.Inf(1)}[rng.Intn(4)])
		for step := 0; step < 12; step++ {
			if rng.Intn(8) == 0 && n < inc.Graph().NumNodes() {
				n++
			}
			batches := make([]graph.Batch, 1+rng.Intn(3))
			for k := range batches {
				batches[k] = rawBatch(rng, n, rng.Intn(7))
			}
			if err := checkRepair(inc, batches...); err != nil {
				t.Errorf("seed %d step %d, batches %v: %v", seed, step, batches, err)
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 60; seed++ {
		if !check(seed) {
			return
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScopeHardCases names the batches a scope rule is most likely to get
// wrong. The graph is two triangles {0,1,2} and {1,2,3} sharing the edge
// (1,2), a pendant 4 on node 3, and an isolated node 5.
func TestScopeHardCases(t *testing.T) {
	ins := func(u, v graph.NodeID) graph.Update {
		return graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: 1}
	}
	del := func(u, v graph.NodeID) graph.Update { return graph.Update{Kind: graph.DeleteEdge, From: u, To: v} }
	cases := []struct {
		name   string
		stages []graph.Batch
		want   []int32 // the scope
	}{
		{"one edge of two triangles", []graph.Batch{{del(1, 2)}}, []int32{0, 1, 2, 3}},
		{"two edges of one triangle, one batch", []graph.Batch{{del(0, 1), del(0, 2)}}, []int32{0, 1, 2}},
		{"three edges of one triangle, one batch", []graph.Batch{{del(0, 1), del(0, 2), del(1, 2)}}, []int32{0, 1, 2, 3}},
		{"two edges of one triangle, two stages", []graph.Batch{{del(0, 1)}, {del(0, 2)}}, []int32{0, 1, 2}},
		{"three edges of one triangle, three stages", []graph.Batch{{del(0, 2)}, {del(0, 1)}, {del(1, 2)}}, []int32{0, 1, 2, 3}},
		{"two inserts closing one triangle, one batch", []graph.Batch{{ins(5, 1), ins(5, 2)}}, []int32{1, 2, 5}},
		{"three inserts making one triangle, one batch", []graph.Batch{{ins(5, 4), ins(5, 0), ins(4, 0)}}, []int32{0, 4, 5}},
		{"two inserts closing one triangle, two stages", []graph.Batch{{ins(5, 1)}, {ins(5, 2)}}, []int32{1, 2, 5}},
		{"insert whose triangle a later stage breaks", []graph.Batch{{ins(0, 3)}, {del(1, 3)}}, []int32{0, 1, 2, 3}},
		{"delete then reinsert, one batch", []graph.Batch{{del(1, 2), ins(1, 2)}}, []int32{0, 1, 2, 3}},
		{"insert then delete of an absent edge, one batch", []graph.Batch{{ins(0, 3), del(0, 3)}}, []int32{0, 1, 2, 3}},
		{"absent-edge delete", []graph.Batch{{del(0, 3), del(4, 5)}}, nil},
		{"duplicate insert, either orientation", []graph.Batch{{ins(0, 1), ins(2, 1)}}, nil},
		{"self-loop and out-of-range ids", []graph.Batch{{ins(2, 2), del(3, 3), ins(0, 77), del(-1, 2)}}, nil},
		{"pendant edge: no triangle either side", []graph.Batch{{del(3, 4)}}, []int32{3, 4}},
		// The common neighbors of (1,2) are {0,3} before the batch and
		// {0,4} after it: 3 and 4 are each an endpoint of another update,
		// so reading them after the batch changes no scope.
		{"deletes and inserts at one node, one batch", []graph.Batch{{del(1, 2), del(1, 3), ins(2, 4), ins(1, 4)}}, []int32{0, 1, 2, 3, 4}},
	}
	for _, c := range cases {
		g := graph.New(6, false)
		for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}} {
			g.InsertEdge(e[0], e[1], 1)
		}
		inc := NewInc(g)
		if err := checkRepair(inc, c.stages...); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if got := sorted(inc.Written()); !slices.Equal(got, c.want) {
			t.Errorf("%s: scope %v, want %v", c.name, got, c.want)
		}
	}

	// A vertex insertion: the first edges of a node isolated until then.
	t.Run("edge to a freshly added node id", func(t *testing.T) {
		inc := NewInc(withIsolated(triangleWithTail(), 1))
		v := graph.NodeID(4)
		if err := checkRepair(inc, graph.Batch{ins(v, 0), ins(1, v)}); err != nil {
			t.Fatal(err)
		}
		if got := sorted(inc.Written()); !slices.Equal(got, []int32{0, 1, int32(v)}) {
			t.Fatalf("scope %v", got)
		}
	})

	// Two hubs over the same 40 leaves: the edge between them is in the
	// input set of every leaf, and of nothing else.
	t.Run("hub-hub edge", func(t *testing.T) {
		const leaves = 40
		g := graph.New(leaves+3, false)
		for l := graph.NodeID(2); l < leaves+2; l++ {
			g.InsertEdge(0, l, 1)
			g.InsertEdge(1, l, 1)
		}
		g.InsertEdge(0, leaves+2, 1) // a neighbor of one hub only
		inc := NewInc(g)
		for _, b := range []graph.Batch{{ins(0, 1)}, {del(1, 0)}} {
			if err := checkRepair(inc, b); err != nil {
				t.Fatal(err)
			}
			if got := len(inc.Written()); got != leaves+2 {
				t.Fatalf("%v has a scope of %d nodes, want the hubs and their %d common leaves", b, got, leaves)
			}
		}
	})
}

// TestScopeBoundedOnBurst is the boundedness guard on the benchmark's
// burst shape: a batch's scope is its endpoints and the common neighbors
// of its edges, a small part of the graph — where the one-hop rule this
// replaced recounted 5,600 of the 6,000 nodes.
func TestScopeBoundedOnBurst(t *testing.T) {
	g := gen.BurstGraph()
	s := gen.NewBurstStream(7, g)
	inc := NewInc(g)
	for round := 0; round < 5; round++ {
		b := s.Next(gen.BurstBatch)
		pre := inc.Graph().Clone()
		pe := inc.Apply(b)
		post := inc.Graph()
		bound := 2 * len(b) // the stream holds no no-ops: every update is applied
		for _, u := range b {
			side := post
			if u.Kind == graph.DeleteEdge {
				side = pre
			}
			ts, _, _, _ := side.Flat().OutSpans(u.From)
			for _, to := range ts {
				if side.HasEdge(to, u.To) {
					bound++
				}
			}
		}
		if pe > bound || pe >= gen.BurstNodes/4 {
			t.Fatalf("round %d: a scope of %d nodes; bound 2·|applied| + Σ|common| = %d, |V|/4 = %d", round, pe, bound, gen.BurstNodes/4)
		}
		if !inc.Result().Equal(Run(post)) {
			t.Fatalf("round %d: result differs from Run", round)
		}
	}
}
