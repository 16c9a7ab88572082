package dynconn

import (
	"math/rand"
	"testing"
)

// oracle recomputes connectivity by BFS over an explicit edge set.
type oracle struct {
	n     int
	edges map[uint64]bool
}

func newOracle(n int) *oracle { return &oracle{n: n, edges: map[uint64]bool{}} }

func (o *oracle) insert(u, v int32) bool {
	k := canon(u, v)
	if u == v || o.edges[k] {
		return false
	}
	o.edges[k] = true
	return true
}

func (o *oracle) delete(u, v int32) bool {
	k := canon(u, v)
	if !o.edges[k] {
		return false
	}
	delete(o.edges, k)
	return true
}

func (o *oracle) components() []int {
	adj := make([][]int32, o.n)
	for k := range o.edges {
		u, v := unpack(k)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	comp := make([]int, o.n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for s := 0; s < o.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		stack := []int32{int32(s)}
		comp[s] = c
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if comp[y] < 0 {
					comp[y] = c
					stack = append(stack, y)
				}
			}
		}
		c++
	}
	return comp
}

func (o *oracle) connected(u, v int32) bool {
	c := o.components()
	return c[u] == c[v]
}

func (o *oracle) numComponents() int {
	c := o.components()
	max := -1
	for _, x := range c {
		if x > max {
			max = x
		}
	}
	return max + 1
}

func TestBasicLinkCut(t *testing.T) {
	d := New(4)
	if d.Components() != 4 || d.Connected(0, 1) {
		t.Fatal("initial state wrong")
	}
	if !d.Insert(0, 1) || !d.Insert(1, 2) {
		t.Fatal("insert failed")
	}
	if d.Insert(0, 1) {
		t.Fatal("duplicate insert succeeded")
	}
	if d.Insert(1, 1) {
		t.Fatal("self-loop insert succeeded")
	}
	if !d.Connected(0, 2) || d.Connected(0, 3) || d.Components() != 2 {
		t.Fatal("connectivity wrong after inserts")
	}
	if !d.Delete(1, 2) {
		t.Fatal("delete failed")
	}
	if d.Delete(1, 2) {
		t.Fatal("double delete succeeded")
	}
	if d.Connected(0, 2) || !d.Connected(0, 1) || d.Components() != 3 {
		t.Fatal("connectivity wrong after delete")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCycleReplacement(t *testing.T) {
	// Deleting a tree edge of a cycle must find the non-tree replacement.
	d := New(3)
	d.Insert(0, 1)
	d.Insert(1, 2)
	d.Insert(2, 0) // non-tree
	if !d.Delete(0, 1) {
		t.Fatal("delete failed")
	}
	if !d.Connected(0, 1) || d.Components() != 1 {
		t.Fatal("replacement not found")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIsolatedVerticesJoin: vertices with no edge yet are components of
// their own until their first insertions (a vertex insertion).
func TestIsolatedVerticesJoin(t *testing.T) {
	d := New(4)
	d.Insert(0, 1)
	if d.Components() != 3 {
		t.Fatalf("components = %d, want 3", d.Components())
	}
	d.Insert(2, 3)
	d.Insert(1, 2)
	if !d.Connected(0, 3) {
		t.Fatal("isolated vertices not connectable")
	}
}

func TestRandomAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		d := New(n)
		o := newOracle(n)
		for op := 0; op < 1500; op++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if rng.Intn(5) < 3 {
				if got, want := d.Insert(u, v), o.insert(u, v); got != want {
					t.Fatalf("seed %d op %d: Insert(%d,%d) = %v, want %v", seed, op, u, v, got, want)
				}
			} else {
				if got, want := d.Delete(u, v), o.delete(u, v); got != want {
					t.Fatalf("seed %d op %d: Delete(%d,%d) = %v, want %v", seed, op, u, v, got, want)
				}
			}
			if op%50 == 0 {
				a := int32(rng.Intn(n))
				b := int32(rng.Intn(n))
				if got, want := d.Connected(a, b), o.connected(a, b); got != want {
					t.Fatalf("seed %d op %d: Connected(%d,%d) = %v, want %v", seed, op, a, b, got, want)
				}
				if got, want := d.Components(), o.numComponents(); got != want {
					t.Fatalf("seed %d op %d: Components = %d, want %d", seed, op, got, want)
				}
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Final exhaustive connectivity comparison.
		comp := o.components()
		for a := int32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				if d.Connected(a, b) != (comp[a] == comp[b]) {
					t.Fatalf("seed %d: final Connected(%d,%d) wrong", seed, a, b)
				}
			}
		}
	}
}

func TestDeleteCascadePushesLevels(t *testing.T) {
	// A dense component forces the HDT cascade through multiple levels.
	rng := rand.New(rand.NewSource(99))
	const n = 64
	d := New(n)
	type e struct{ u, v int32 }
	var present []e
	for i := 0; i < 400; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if d.Insert(u, v) {
			present = append(present, e{u, v})
		}
	}
	for i := 0; i < 300; i++ {
		j := rng.Intn(len(present))
		d.Delete(present[j].u, present[j].v)
		present = append(present[:j], present[j+1:]...)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(d.levels) < 2 {
		t.Fatal("cascade never pushed an edge past level 0")
	}
}

func TestSplayIndexOrdering(t *testing.T) {
	// Build a small sequence by merges and verify index() positions.
	var nodes []*node
	var root *node
	for i := 0; i < 10; i++ {
		x := &node{u: int32(i), v: int32(i)}
		x.update()
		nodes = append(nodes, x)
		root = merge(root, x)
	}
	for i, x := range nodes {
		if got := index(x); got != int32(i) {
			t.Fatalf("index(%d) = %d", i, got)
		}
	}
	if !sameSeq(nodes[0], nodes[9]) {
		t.Fatal("sameSeq false within one sequence")
	}
	lone := &node{u: 99, v: 99}
	lone.update()
	if sameSeq(nodes[0], lone) {
		t.Fatal("sameSeq true across sequences")
	}
}
