package dfs

import (
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// recursiveRef is an independent recursive implementation of the canonical
// DFS used to validate Run: it sorts the graph's own rows, where Run reads
// a Flat's.
func recursiveRef(g *graph.Graph) *Tree {
	n := g.NumNodes()
	t := &Tree{First: make([]int32, n), Last: make([]int32, n), Parent: make([]graph.NodeID, n)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	clock := int32(0)
	var visit func(v graph.NodeID)
	visit = func(v graph.NodeID) {
		clock++
		t.First[v] = clock
		var row []graph.NodeID
		for _, e := range g.Out(v) {
			row = append(row, e.To)
		}
		slices.Sort(row)
		for _, w := range row {
			if t.First[w] == 0 {
				t.Parent[w] = v
				visit(w)
			}
		}
		clock++
		t.Last[v] = clock
	}
	for s := 0; s < n; s++ {
		if t.First[s] == 0 {
			visit(graph.NodeID(s))
		}
	}
	return t
}

func TestRunMatchesRecursive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 50, 160, seed%2 == 0)
		got := Run(g)
		want := recursiveRef(g)
		if !got.Equal(want) {
			t.Fatalf("seed %d: iterative != recursive DFS", seed)
		}
		if !got.IsValid(g) {
			t.Fatalf("seed %d: tree invalid", seed)
		}
	}
}

func TestRunSmallKnown(t *testing.T) {
	// 0 -> {1, 2}, 1 -> 2: canonical order visits 0,1,2 nested.
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(1, 2, 1)
	tr := Run(g)
	if tr.First[0] != 1 || tr.First[1] != 2 || tr.First[2] != 3 {
		t.Fatalf("firsts = %v", tr.First)
	}
	if tr.Last[2] != 4 || tr.Last[1] != 5 || tr.Last[0] != 6 {
		t.Fatalf("lasts = %v", tr.Last)
	}
	if tr.Parent[1] != 0 || tr.Parent[2] != 1 || tr.Parent[0] != -1 {
		t.Fatalf("parents = %v", tr.Parent)
	}
}

func TestIncAgainstBatch(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := gen.ErdosRenyi(rng, 60, 200, directed)
		inc := NewInc(g)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, inc.Graph(), 12, 0.5)
			before, led := inc.Tree().clone(), inc.Stats().Ledger
			replayed := inc.Apply(b)
			want := Run(inc.Graph())
			if !inc.Tree().Equal(want) {
				t.Fatalf("seed %d round %d: IncDFS != batch DFS", seed, round)
			}
			// Written() is the set of nodes whose triple differs, each once,
			// and the ledger counts this repair and nothing else.
			var changed []int32
			for v := range want.First {
				if want.First[v] != before.First[v] || want.Last[v] != before.Last[v] || want.Parent[v] != before.Parent[v] {
					changed = append(changed, int32(v))
				}
			}
			written := slices.Clone(inc.Written())
			slices.Sort(written)
			if !slices.Equal(written, changed) {
				t.Fatalf("seed %d round %d: Written() = %v, the changed triples are %v", seed, round, written, changed)
			}
			got := inc.Stats().Ledger.Sub(led)
			if got.Runs != 1 || got.Aff != int64(replayed+len(inc.sc.open)) || got.Changed != int64(len(changed)) || got.Changed > got.Aff || (replayed > 0 && got.AffEdges == 0) {
				t.Fatalf("seed %d round %d: ledger %+v for %d replayed, %d changed", seed, round, got, replayed, len(changed))
			}
		}
	}
}

// TestRepairZeroAlloc: once the replay scratch has grown to the graph, a
// repair allocates nothing.
func TestRepairZeroAlloc(t *testing.T) {
	g := gen.PowerLaw(rand.New(rand.NewSource(5)), 2000, 8, false)
	s := gen.NewBurstStream(5, g)
	inc := NewInc(g)
	inc.Apply(s.Next(50)) // warm-up: the scratch and the written list
	var replayed int
	repair := func() { replayed = inc.Repair() }
	alloctest.Zero(t, func(measure func(func())) {
		for round := 0; round < 20; round++ {
			// Edge 0–1 in or out: either way tstar is at node 0's visit.
			up := graph.Update{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}
			if g.HasEdge(0, 1) {
				up.Kind = graph.DeleteEdge
			}
			inc.Graph().Advance(graph.Batch{up})
			if round < 2 {
				repair()
			} else {
				measure(repair)
			}
			if replayed == 0 {
				t.Fatal("nothing replayed")
			}
		}
	})
	if !inc.Tree().Equal(Run(g)) {
		t.Fatal("tree differs from Run")
	}
}

func TestIncUnitAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi(rng, 50, 150, true)
	inc := NewInc(g)
	for round := 0; round < 5; round++ {
		b := gen.RandomUpdates(rng, inc.Graph(), 8, 0.5)
		for k := range b {
			inc.Apply(b[k : k+1])
		}
		if !inc.Tree().Equal(Run(inc.Graph())) {
			t.Fatalf("round %d: IncDFS_n != batch DFS", round)
		}
	}
}

func TestIncSuffixOnly(t *testing.T) {
	// An update touching the node visited last must not recompute earlier
	// intervals.
	g := graph.New(6, true)
	for v := 0; v+1 < 6; v++ {
		g.InsertEdge(graph.NodeID(v), graph.NodeID(v+1), 1)
	}
	inc := NewInc(g)
	affected := inc.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 4, To: 5}})
	if affected != 1 {
		t.Fatalf("affected = %d, want 1 (only node 5)", affected)
	}
	if !inc.Tree().Equal(Run(inc.Graph())) {
		t.Fatal("tree wrong after suffix repair")
	}
}

// TestIncVertexInsertion: a vertex insertion is edge insertions at a node
// the graph was built with, still isolated (§4).
func TestIncVertexInsertion(t *testing.T) {
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 1)
	inc := NewInc(g)
	v := graph.NodeID(3)
	inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 1, To: v, W: 1}})
	if !inc.Tree().Equal(Run(inc.Graph())) {
		t.Fatal("tree wrong after vertex insertion")
	}
}

func TestIncEmptyBatch(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 20, 40, true)
	inc := NewInc(g)
	before := inc.Tree().clone()
	if got := inc.Apply(nil); got != 0 {
		t.Fatalf("empty batch recomputed %d intervals", got)
	}
	if !inc.Tree().Equal(before) {
		t.Fatal("empty batch changed tree")
	}
}

func TestDynDFSMaintainsValidity(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := gen.ErdosRenyi(rng, 50, 170, directed)
		dyn := NewDynDFS(g)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, dyn.Graph(), 10, 0.5)
			dyn.Apply(b)
			if !dyn.Tree().IsValid(dyn.Graph()) {
				t.Fatalf("seed %d round %d: DynDFS tree invalid", seed, round)
			}
		}
	}
}

func TestDynDFSAbsorbsBackEdge(t *testing.T) {
	// Inserting a back edge must be absorbed without recomputation.
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	dyn := NewDynDFS(g)
	if got := dyn.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 2, To: 0, W: 1}}); got != 0 {
		t.Fatalf("back edge recomputed %d intervals", got)
	}
	if !dyn.Tree().IsValid(dyn.Graph()) {
		t.Fatal("tree invalid after absorb")
	}
}

func TestIsValidRejectsForwardCross(t *testing.T) {
	g := graph.New(2, true)
	g.InsertEdge(0, 1, 1)
	tr := Run(g)
	// Fabricate a forward-cross: pretend 0 finished before 1 started.
	bad := tr.clone()
	bad.First[0], bad.Last[0] = 1, 2
	bad.First[1], bad.Last[1] = 3, 4
	bad.Parent[1] = -1
	if bad.IsValid(g) {
		t.Fatal("forward-cross not rejected")
	}
}

func TestIsValidRejectsBadParent(t *testing.T) {
	g := graph.New(2, true)
	g.InsertEdge(0, 1, 1)
	tr := Run(g)
	bad := tr.clone()
	bad.Parent[0] = 1 // no edge 1 -> 0
	if bad.IsValid(g) {
		t.Fatal("nonexistent parent edge not rejected")
	}
}
