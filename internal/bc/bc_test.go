package bc

import (
	"math/rand"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// bruteArticulation checks each node by deletion: v is an articulation
// point iff removing it increases the number of connected components among
// the remaining nodes of its component.
func bruteArticulation(g *graph.Graph) []bool {
	n := g.NumNodes()
	comps := func(skip graph.NodeID) []int {
		lab := make([]int, n)
		for i := range lab {
			lab[i] = -1
		}
		c := 0
		for s := 0; s < n; s++ {
			if graph.NodeID(s) == skip || lab[s] >= 0 {
				continue
			}
			stack := []graph.NodeID{graph.NodeID(s)}
			lab[s] = c
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range g.Out(x) {
					if e.To != skip && lab[e.To] < 0 {
						lab[e.To] = c
						stack = append(stack, e.To)
					}
				}
			}
			c++
		}
		return lab
	}
	count := func(lab []int, skip graph.NodeID) int {
		max := -1
		for v, l := range lab {
			if graph.NodeID(v) == skip {
				continue
			}
			if l > max {
				max = l
			}
		}
		return max + 1
	}
	base := comps(-1)
	baseCount := count(base, -1)
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if len(g.Out(graph.NodeID(v))) == 0 {
			continue
		}
		lab := comps(graph.NodeID(v))
		// Removing v removes one node; its component may split.
		if count(lab, graph.NodeID(v)) > baseCount {
			out[v] = true
		}
	}
	return out
}

func TestRunKnownShapes(t *testing.T) {
	// Two triangles sharing node 2 ("bowtie"): 2 is the articulation
	// point; two biconnected components.
	g := graph.New(5, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(3, 4, 1)
	g.InsertEdge(2, 4, 1)
	r := Run(g)
	for v := 0; v < 5; v++ {
		want := v == 2
		if r.Articulation[v] != want {
			t.Fatalf("Articulation[%d] = %v", v, r.Articulation[v])
		}
	}
	if r.NumComps() != 2 {
		t.Fatalf("NumComps = %d, want 2", r.NumComps())
	}
	if r.EdgeComp(0, 1) != r.EdgeComp(1, 2) || r.EdgeComp(0, 1) == r.EdgeComp(3, 4) {
		t.Fatal("edge partition wrong")
	}
}

func TestRunBridgesAndPath(t *testing.T) {
	// A path: every edge its own component, every interior node an
	// articulation point.
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	r := Run(g)
	if !r.Articulation[1] || !r.Articulation[2] || r.Articulation[0] || r.Articulation[3] {
		t.Fatalf("articulation flags wrong: %v", r.Articulation)
	}
	if r.NumComps() != 3 {
		t.Fatalf("NumComps = %d, want 3", r.NumComps())
	}
}

func TestRunCycleHasNoArticulation(t *testing.T) {
	g := graph.New(5, false)
	for v := 0; v < 5; v++ {
		g.InsertEdge(graph.NodeID(v), graph.NodeID((v+1)%5), 1)
	}
	r := Run(g)
	for v, a := range r.Articulation {
		if a {
			t.Fatalf("cycle node %d marked articulation", v)
		}
	}
	if r.NumComps() != 1 {
		t.Fatalf("NumComps = %d, want 1", r.NumComps())
	}
}

func TestRunMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 30, 45, false)
		r := Run(g)
		want := bruteArticulation(g)
		for v := range want {
			if r.Articulation[v] != want[v] {
				t.Fatalf("seed %d: Articulation[%d] = %v, want %v", seed, v, r.Articulation[v], want[v])
			}
		}
		// Every edge must be assigned to a component: an id that heads a block.
		g.Edges(func(u, v graph.NodeID, _ int64) {
			if c := r.EdgeComp(u, v); c < 0 || r.Block[c] != graph.NodeID(c) {
				t.Fatalf("seed %d: edge {%d, %d} labeled %d, which heads no block", seed, u, v, c)
			}
		})
		if got, want := r.NumComps(), countLabels(g, r); got != want {
			t.Fatalf("seed %d: NumComps = %d, the edges carry %d labels", seed, got, want)
		}
	}
}

func TestIncAgainstBatch(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 60, 100, false)
		inc := NewInc(g)
		for round := 0; round < 8; round++ {
			b := gen.RandomUpdates(rng, inc.Graph(), 12, 0.5)
			inc.Apply(b)
			want := Run(inc.Graph())
			if !inc.Result().Equivalent(want, inc.Graph()) {
				t.Fatalf("seed %d round %d: incremental BC != batch", seed, round)
			}
		}
	}
}

func TestIncTouchesOnlyAffectedComponents(t *testing.T) {
	// Two far-apart components; updating one must not revisit the other.
	rng := rand.New(rand.NewSource(3))
	a := gen.PowerLaw(rng, 2000, 6, false)
	g := graph.New(4000, false)
	a.Edges(func(u, v graph.NodeID, w int64) {
		g.InsertEdge(u, v, w)           // component A: nodes 0..1999
		g.InsertEdge(u+2000, v+2000, w) // component B: nodes 2000..3999
	})
	inc := NewInc(g)
	visited := inc.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1999, W: 1}})
	if visited > 2100 {
		t.Fatalf("unit update in component A revisited %d nodes", visited)
	}
	if !inc.Result().Equivalent(Run(inc.Graph()), inc.Graph()) {
		t.Fatal("result wrong")
	}
}

// TestIncVertexUpdates: a vertex insertion is edge insertions at a node
// the graph was built with, still isolated (§4).
func TestIncVertexUpdates(t *testing.T) {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	inc := NewInc(g)
	v := graph.NodeID(3)
	inc.Apply(graph.Batch{
		{Kind: graph.InsertEdge, From: 2, To: v, W: 1},
		{Kind: graph.InsertEdge, From: 0, To: v, W: 1},
	})
	want := Run(inc.Graph())
	if !inc.Result().Equivalent(want, inc.Graph()) {
		t.Fatal("result wrong after vertex insertion")
	}
	// The new edges close a cycle 0-1-2-v: no articulation points remain.
	for n, a := range inc.Result().Articulation {
		if a {
			t.Fatalf("node %d marked articulation in a cycle", n)
		}
	}
}

func TestIncEmptyBatch(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 20, 30, false)
	inc := NewInc(g)
	if got := inc.Apply(nil); got != 0 {
		t.Fatalf("empty batch visited %d nodes", got)
	}
}

func TestEquivalentDetectsDifferences(t *testing.T) {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(2, 3, 1)
	a := Run(g)
	b := Run(g)
	if !a.Equivalent(b, g) {
		t.Fatal("identical runs not equivalent")
	}
	b.Articulation[1] = false
	if a.Equivalent(b, g) {
		t.Fatal("articulation difference not detected")
	}
	c := Run(g)
	// Merge the blocks of {0, 1} and {1, 2}: relabel the node whose tree
	// edge is {1, 2}, and retire the head that leaves without members.
	c.Block[2] = c.Block[1]
	c.comps--
	if a.Equivalent(c, g) {
		t.Fatal("partition difference not detected")
	}
}

// countLabels is the brute-force block count: the distinct EdgeComp labels
// over the graph's edges.
func countLabels(g *graph.Graph, r *Result) int {
	labels := map[int32]bool{}
	g.Edges(func(u, v graph.NodeID, _ int64) { labels[r.EdgeComp(u, v)] = true })
	return len(labels)
}
