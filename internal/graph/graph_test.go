package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5, true)
	if g.NumNodes() != 5 || g.NumEdges() != 0 || g.NumAlive() != 5 {
		t.Fatalf("got nodes=%d edges=%d alive=%d", g.NumNodes(), g.NumEdges(), g.NumAlive())
	}
	if !g.Directed() {
		t.Fatal("expected directed")
	}
	if g.Size() != 5 {
		t.Fatalf("Size = %d, want 5", g.Size())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteDirected(t *testing.T) {
	g := New(4, true)
	if !g.InsertEdge(0, 1, 5) {
		t.Fatal("insert failed")
	}
	if g.InsertEdge(0, 1, 7) {
		t.Fatal("duplicate insert succeeded")
	}
	if g.InsertEdge(2, 2, 1) {
		t.Fatal("self-loop insert succeeded")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edge direction wrong")
	}
	if g.Weight(0, 1) != 5 {
		t.Fatalf("weight = %d", g.Weight(0, 1))
	}
	if g.Weight(1, 0) != Infinity {
		t.Fatal("absent edge should weigh Infinity")
	}
	if len(g.In(1)) != 1 || g.In(1)[0].To != 0 {
		t.Fatalf("in-adjacency wrong: %v", g.In(1))
	}
	if !g.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if g.DeleteEdge(0, 1) {
		t.Fatal("double delete succeeded")
	}
	if g.NumEdges() != 0 || len(g.Out(0)) != 0 || len(g.In(1)) != 0 {
		t.Fatal("edge not fully removed")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteUndirected(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(0, 1, 2)
	if !g.HasEdge(1, 0) {
		t.Fatal("undirected edge must exist in both directions")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.InsertEdge(1, 0, 9) {
		t.Fatal("reverse duplicate insert succeeded")
	}
	if !g.DeleteEdge(1, 0) {
		t.Fatal("delete via reverse orientation failed")
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Fatal("edge not removed")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapRemoveKeepsIndex(t *testing.T) {
	// Deleting from the middle of an adjacency list moves the last entry into
	// the hole; the moved edge must still be found.
	g := New(5, true)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(0, 3, 1)
	g.InsertEdge(0, 4, 1)
	g.DeleteEdge(0, 2) // 4 moves into slot of 2
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if !g.DeleteEdge(0, 4) {
		t.Fatal("moved edge lost")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestAddDeleteNode(t *testing.T) {
	g := New(2, true)
	g.InsertEdge(0, 1, 1)
	v := g.AddNode(3)
	if v != 2 || g.Label(v) != 3 {
		t.Fatalf("AddNode gave id=%d label=%d", v, g.Label(v))
	}
	g.InsertEdge(v, 0, 1)
	g.InsertEdge(1, v, 1)
	removed := g.DeleteNode(v)
	if len(removed) != 2 {
		t.Fatalf("DeleteNode removed %d edges, want 2", len(removed))
	}
	if g.Alive(v) || g.NumAlive() != 2 {
		t.Fatal("node still alive")
	}
	if g.InsertEdge(0, v, 1) {
		t.Fatal("insert touching dead node succeeded")
	}
	if g.DeleteNode(v) != nil {
		t.Fatal("double node delete returned edges")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 2)
	c := g.Clone()
	c.DeleteEdge(0, 1)
	c.InsertEdge(2, 3, 5)
	if !g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Fatal("clone shares state with original")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := New(4, false)
	g.InsertEdge(3, 1, 1)
	g.InsertEdge(0, 2, 1)
	seen := map[[2]NodeID]bool{}
	g.Edges(func(u, v NodeID, w int64) {
		if u >= v {
			t.Fatalf("undirected edge (%d,%d) not normalized", u, v)
		}
		seen[[2]NodeID{u, v}] = true
	})
	if len(seen) != 2 || !seen[[2]NodeID{1, 3}] || !seen[[2]NodeID{0, 2}] {
		t.Fatalf("edges seen: %v", seen)
	}
}

// randomMutation applies n random insert/delete operations, verifying
// consistency against a model map.
func randomMutation(directed bool, n int, seed int64, t *testing.T) {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 20
	g := New(nodes, directed)
	model := map[uint64]int64{}
	key := func(u, v NodeID) uint64 {
		if !directed && u > v {
			u, v = v, u
		}
		return pack(u, v)
	}
	for i := 0; i < n; i++ {
		u := NodeID(rng.Intn(nodes))
		v := NodeID(rng.Intn(nodes))
		if rng.Intn(2) == 0 {
			w := int64(rng.Intn(100) + 1)
			ok := g.InsertEdge(u, v, w)
			_, had := model[key(u, v)]
			wantOK := u != v && !had
			if ok != wantOK {
				t.Fatalf("insert(%d,%d) ok=%v want %v", u, v, ok, wantOK)
			}
			if ok {
				model[key(u, v)] = w
			}
		} else {
			ok := g.DeleteEdge(u, v)
			_, had := model[key(u, v)]
			if directed {
				if ok != had {
					t.Fatalf("delete(%d,%d) ok=%v want %v", u, v, ok, had)
				}
			} else if !ok && had {
				t.Fatalf("undirected delete(%d,%d) failed but edge present", u, v)
			}
			if ok {
				delete(model, key(u, v))
			}
		}
	}
	if g.NumEdges() != len(model) {
		t.Fatalf("edge count %d, model %d", g.NumEdges(), len(model))
	}
	for k, w := range model {
		u, v := NodeID(k>>32), NodeID(uint32(k))
		if g.Weight(u, v) != w {
			t.Fatalf("weight(%d,%d)=%d want %d", u, v, g.Weight(u, v), w)
		}
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMutationsDirected(t *testing.T)   { randomMutation(true, 3000, 1, t) }
func TestRandomMutationsUndirected(t *testing.T) { randomMutation(false, 3000, 2, t) }

func TestRandomMutationsManySeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		randomMutation(seed%2 == 0, 300, seed, t)
	}
}

// TestPackInjective checks that the edge-key packing never collides for
// valid node ids, via testing/quick.
func TestPackInjective(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		u1, v1 := NodeID(a&0xffff), NodeID(b&0xffff)
		u2, v2 := NodeID(c&0xffff), NodeID(d&0xffff)
		if u1 == u2 && v1 == v2 {
			return pack(u1, v1) == pack(u2, v2)
		}
		return pack(u1, v1) != pack(u2, v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendOutSorted covers both sides of the sort cut-off: short rows
// (insertion sort) and a hub row far past it whose neighbors were inserted
// in shuffled order, appended after existing buffer contents that must stay
// untouched.
func TestAppendOutSorted(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(5))
	g := New(n, false)
	for _, v := range rng.Perm(n) {
		if v != 0 && v%3 != 0 {
			g.InsertEdge(0, NodeID(v), 1)
		}
	}
	g.InsertEdge(7, 5, 1)
	g.InsertEdge(7, 2, 1)
	for _, u := range []NodeID{0, 7, 3} {
		got := g.AppendOutSorted(u, []NodeID{99, -1})
		if got[0] != 99 || got[1] != -1 {
			t.Fatalf("node %d: prefix clobbered: %v", u, got[:2])
		}
		row := got[2:]
		if len(row) != g.OutDegree(u) {
			t.Fatalf("node %d: %d neighbors, degree %d", u, len(row), g.OutDegree(u))
		}
		for i, v := range row {
			if !g.HasEdge(u, v) || (i > 0 && row[i-1] >= v) {
				t.Fatalf("node %d: row not the sorted neighbor set: %v", u, row)
			}
		}
	}
	if d := g.OutDegree(0); d <= 32 {
		t.Fatalf("hub degree %d does not reach the sort cut-off", d)
	}
}
