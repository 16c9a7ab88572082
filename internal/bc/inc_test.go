package bc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// regimes are the compaction regimes a maintainer's Flat can be in:
// rebuilt after every batch, the production default, and never rebuilt
// on dead space (rows read as Flat.Stage edited and moved them).
var regimes = []struct {
	name      string
	threshold float64
}{
	{"compact-always", 0},
	{"default", graph.DefaultCompactThreshold},
	{"compact-never", math.Inf(1)},
}

// applyChecked applies b and holds the maintainer to everything a repair
// promises: the structure is the batch run's on G ⊕ ΔG, NumComps is the
// number of distinct labels the graph's edges carry, and CHANGED ⊆
// Written() ⊆ revisited with no node listed twice.
func applyChecked(t *testing.T, inc *Inc, b graph.Batch) int {
	t.Helper()
	before := slices.Clone(inc.Result().Articulation)
	revisited := inc.Apply(b)
	g, r := inc.Graph(), inc.Result()
	if !r.Equivalent(Run(g), g) {
		t.Fatalf("after %v: structure differs from Run", b)
	}
	if got, want := r.NumComps(), countLabels(g, r); got != want {
		t.Fatalf("after %v: NumComps = %d, the edges carry %d labels", b, got, want)
	}
	revisits := inc.st.seen
	if revisited == 0 { // nothing applied, no traversal: the list is the last repair's
		revisits = nil
	}
	if revisited != len(revisits) {
		t.Fatalf("after %v: Apply reports %d nodes revisited, %d were", b, revisited, len(revisits))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range revisits {
		seen[s.v] = true
	}
	written := map[int32]bool{}
	for _, v := range inc.Written() {
		if written[v] {
			t.Fatalf("after %v: node %d twice in Written() %v", b, v, inc.Written())
		}
		if !seen[graph.NodeID(v)] {
			t.Fatalf("after %v: node %d in Written() was not revisited", b, v)
		}
		written[v] = true
	}
	for v, a := range r.Articulation {
		if was := v < len(before) && before[v]; a != was && !written[int32(v)] {
			t.Fatalf("after %v: articulation flag of %d went %v → %v and is not in Written() %v", b, v, was, a, inc.Written())
		}
	}
	return revisited
}

func ins(u, v graph.NodeID) graph.Update {
	return graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: 1}
}
func del(u, v graph.NodeID) graph.Update { return graph.Update{Kind: graph.DeleteEdge, From: u, To: v} }

func build(n int, edges ...[2]graph.NodeID) *graph.Graph {
	g := graph.New(n, false)
	for _, e := range edges {
		g.InsertEdge(e[0], e[1], 1)
	}
	return g
}

func sorted(w []int32) []int32 {
	w = slices.Clone(w)
	slices.Sort(w)
	return w
}

// TestIncHardCases is the differential on the shapes where a per-node
// structure with a maintained count can go wrong, under every compaction
// regime.
func TestIncHardCases(t *testing.T) {
	// Two triangles {0,1,2} and {3,4,5} joined by the bridge {2,3}.
	barbell := func() *graph.Graph {
		return build(6, [2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 2}, [2]graph.NodeID{0, 2},
			[2]graph.NodeID{3, 4}, [2]graph.NodeID{4, 5}, [2]graph.NodeID{3, 5}, [2]graph.NodeID{2, 3})
	}
	cases := []struct {
		name string
		run  func(t *testing.T, mk func(*graph.Graph) *Inc)
	}{
		{"bridge deletion splits a component", func(t *testing.T, mk func(*graph.Graph) *Inc) {
			inc := mk(barbell())
			if got := inc.Result().NumComps(); got != 3 {
				t.Fatalf("barbell has %d blocks, want 3", got)
			}
			// Both halves are re-labelled, the bridge's block is gone, and
			// its two ends stop being articulation points.
			if got := applyChecked(t, inc, graph.Batch{del(2, 3)}); got != 6 {
				t.Fatalf("revisited %d nodes, want both halves (6)", got)
			}
			if got := inc.Result().NumComps(); got != 2 {
				t.Fatalf("%d blocks after the split, want 2", got)
			}
			if got := sorted(inc.Written()); !slices.Equal(got, []int32{2, 3}) {
				t.Fatalf("Written() = %v, want [2 3]", got)
			}
			// Cutting a triangle open turns one block into two bridges.
			applyChecked(t, inc, graph.Batch{del(3, 5)})
			if got := inc.Result().NumComps(); got != 3 {
				t.Fatalf("%d blocks, want the triangle and two bridges (3)", got)
			}
		}},
		{"insertion merges two components", func(t *testing.T, mk func(*graph.Graph) *Inc) {
			// Paths 0-1-2 and 3-4-5; the other component 6-7 stays out of it.
			inc := mk(build(8, [2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 2}, [2]graph.NodeID{3, 4}, [2]graph.NodeID{4, 5}, [2]graph.NodeID{6, 7}))
			if got := applyChecked(t, inc, graph.Batch{ins(2, 3)}); got != 6 {
				t.Fatalf("revisited %d nodes, want the two merged paths (6)", got)
			}
			if got := inc.Result().NumComps(); got != 6 {
				t.Fatalf("%d blocks, want 6 bridges", got)
			}
			// Closing the path into a cycle merges five bridges into one block.
			applyChecked(t, inc, graph.Batch{ins(5, 0)})
			if got := inc.Result().NumComps(); got != 2 {
				t.Fatalf("%d blocks, want the cycle and the bridge {6,7} (2)", got)
			}
			if got := sorted(inc.Written()); !slices.Equal(got, []int32{1, 2, 3, 4}) {
				t.Fatalf("Written() = %v, want the path's interior [1 2 3 4]", got)
			}
		}},
		{"root with two children", func(t *testing.T, mk func(*graph.Graph) *Inc) {
			// Node 0 is where every traversal of this component can start,
			// and an articulation point only by the two-children rule.
			inc := mk(build(3, [2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 2}))
			if !inc.Result().Articulation[0] {
				t.Fatal("the middle of a path is an articulation point")
			}
			applyChecked(t, inc, graph.Batch{ins(1, 2)})
			if inc.Result().Articulation[0] || !slices.Equal(inc.Written(), []int32{0}) {
				t.Fatalf("after closing the triangle: flag %v, Written() %v", inc.Result().Articulation[0], inc.Written())
			}
			applyChecked(t, inc, graph.Batch{del(1, 2)})
			if !inc.Result().Articulation[0] || !slices.Equal(inc.Written(), []int32{0}) {
				t.Fatalf("after reopening it: flag %v, Written() %v", inc.Result().Articulation[0], inc.Written())
			}
		}},
		{"delete then reinsert in one batch", func(t *testing.T, mk func(*graph.Graph) *Inc) {
			inc := mk(barbell())
			applyChecked(t, inc, graph.Batch{del(2, 3), ins(2, 3)})
			if len(inc.Written()) != 0 || inc.Result().NumComps() != 3 {
				t.Fatalf("Written() = %v, %d blocks; want nothing written and 3", inc.Written(), inc.Result().NumComps())
			}
			applyChecked(t, inc, graph.Batch{ins(0, 5), del(0, 5), del(0, 1), ins(0, 1), del(0, 1)})
			if got := inc.Result().NumComps(); got != 4 {
				t.Fatalf("%d blocks, want a triangle and three bridges (4)", got)
			}
		}},
		{"isolated and newly added nodes", func(t *testing.T, mk func(*graph.Graph) *Inc) {
			// Nodes 4 and 5 stay isolated until their vertex insertions.
			inc := mk(build(6, [2]graph.NodeID{0, 1}))
			v, w := graph.NodeID(4), graph.NodeID(5)
			if r := inc.Result(); r.NumComps() != 1 || r.Block[2] != -1 || r.Block[3] != -1 {
				t.Fatalf("one edge, four isolated nodes: %d blocks, Block = %v", r.NumComps(), r.Block)
			}
			// The only edge goes: both ends are isolated, one of them a
			// former head.
			applyChecked(t, inc, graph.Batch{del(0, 1)})
			if r := inc.Result(); r.NumComps() != 0 || r.Block[0] != -1 || r.Block[1] != -1 {
				t.Fatalf("no edges: %d blocks, Block = %v", r.NumComps(), r.Block)
			}
			applyChecked(t, inc, graph.Batch{ins(2, v), ins(v, 3)})
			if r := inc.Result(); r.NumComps() != 2 || !r.Articulation[v] || !slices.Equal(inc.Written(), []int32{int32(v)}) {
				t.Fatalf("path through the new node: %d blocks, flags %v, Written() %v", r.NumComps(), r.Articulation, inc.Written())
			}
			applyChecked(t, inc, nil) // w still isolated
			applyChecked(t, inc, graph.Batch{ins(w, 2), ins(w, 3)})
			if r := inc.Result(); r.NumComps() != 1 || r.Articulation[v] {
				t.Fatalf("cycle 2-%d-3-%d: %d blocks, flags %v", v, w, r.NumComps(), r.Articulation)
			}
		}},
	}
	for _, c := range cases {
		for _, reg := range regimes {
			t.Run(fmt.Sprintf("%s/%s", c.name, reg.name), func(t *testing.T) {
				c.run(t, func(g *graph.Graph) *Inc {
					inc := NewInc(g)
					inc.Graph().Flat().SetCompactThreshold(reg.threshold)
					return inc
				})
			})
		}
	}
}

// TestIncDifferentialRegimes is TestIncAgainstBatch with the full set of
// promises checked after every batch, on sparse graphs (many components,
// many blocks, splits and merges in every round) under each regime.
func TestIncDifferentialRegimes(t *testing.T) {
	for _, reg := range regimes {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			inc := NewInc(gen.ErdosRenyi(rng, 60, 40+int(seed%3)*30, false))
			inc.Graph().Flat().SetCompactThreshold(reg.threshold)
			for round := 0; round < 10; round++ {
				applyChecked(t, inc, gen.RandomUpdates(rng, inc.Graph(), 12, 0.5))
			}
		}
	}
}

// TestClockDoesNotWrap is the regression test for a DFS clock that counted
// on across repairs: the repair in which it passed 2³¹ numbered ancestors
// just below the wrap and descendants just above it, took every back edge
// for a forward one, and published wrong articulation points.
func TestClockDoesNotWrap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := NewInc(gen.ErdosRenyi(rng, 60, 100, false))
		inc.st.clock = math.MaxInt32 - 20
		applyChecked(t, inc, gen.RandomUpdates(rng, inc.Graph(), 12, 0.5))
	}
}

// TestRepairZeroAlloc: once the scratch has grown to the graph, a repair
// allocates nothing.
func TestRepairZeroAlloc(t *testing.T) {
	g := gen.PowerLaw(rand.New(rand.NewSource(5)), 2000, 8, false)
	s := gen.NewBurstStream(5, g)
	inc := NewInc(g)
	inc.Apply(s.Next(50)) // warm-up: the written list
	var revisited int
	repair := func() { revisited = inc.Repair() }
	alloctest.Zero(t, func(measure func(func())) {
		for round := 0; round < 20; round++ {
			b := graph.Batch{ins(0, 1)} // the edge in or out, the component is revisited
			if g.HasEdge(0, 1) {
				b = graph.Batch{del(0, 1)}
			}
			inc.Graph().Advance(b)
			if round < 2 {
				repair()
			} else {
				measure(repair)
			}
			if revisited == 0 {
				t.Fatal("nothing revisited")
			}
		}
	})
	if !inc.Result().Equivalent(Run(g), g) {
		t.Fatal("structure differs from Run")
	}
}

// TestRestoreStateRoundTrip: the three exported arrays are the whole
// structure, count included, and a restored maintainer keeps repairing.
func TestRestoreStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewInc(gen.ErdosRenyi(rng, 80, 90, false))
	src.Apply(gen.RandomUpdates(rng, src.Graph(), 20, 0.5))
	r := src.Result()

	g := src.Graph().Clone()
	inc := NewInc(g)
	if err := inc.RestoreState(r.Articulation, r.Block, r.Num); err != nil {
		t.Fatal(err)
	}
	if got := inc.Result(); !got.Equivalent(r, g) || got.NumComps() != r.NumComps() {
		t.Fatalf("restored structure differs: %d blocks, want %d", got.NumComps(), r.NumComps())
	}
	for round := 0; round < 5; round++ {
		applyChecked(t, inc, gen.RandomUpdates(rng, g, 12, 0.5))
	}
	if err := inc.RestoreState(r.Articulation[:10], r.Block, r.Num); err == nil {
		t.Fatal("restore of 10 flags into 80 nodes accepted")
	}
}
