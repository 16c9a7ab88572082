package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// flatEdges collects u's live out-edges from the flat view, sorted.
func flatEdges(f *Flat, u NodeID) []Edge {
	var es []Edge
	f.EachOut(u, func(v NodeID, w int64) { es = append(es, Edge{To: v, W: w}) })
	sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	return es
}

func flatInEdges(f *Flat, u NodeID) []Edge {
	var es []Edge
	f.EachIn(u, func(v NodeID, w int64) { es = append(es, Edge{To: v, W: w}) })
	sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	return es
}

func graphEdges(g *Graph, u NodeID, in bool) []Edge {
	var src []Edge
	if in {
		src = g.In(u)
	} else {
		src = g.Out(u)
	}
	es := append([]Edge(nil), src...)
	sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	return es
}

func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkFlatAgainstGraph(t *testing.T, f *Flat, g *Graph) {
	t.Helper()
	for u := 0; u < g.NumNodes(); u++ {
		if got, want := flatEdges(f, NodeID(u)), graphEdges(g, NodeID(u), false); !sameEdges(got, want) {
			t.Fatalf("out(%d): flat %v, graph %v", u, got, want)
		}
		if got, want := flatInEdges(f, NodeID(u)), graphEdges(g, NodeID(u), true); !sameEdges(got, want) {
			t.Fatalf("in(%d): flat %v, graph %v", u, got, want)
		}
	}
}

// TestFlatDifferential drives a Flat and its Graph through random update
// streams and checks the views agree after every staged batch, for both
// directed and undirected graphs, with compaction forced at several
// thresholds.
func TestFlatDifferential(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, thr := range []float64{0, 0.25, 1e9} {
			rng := rand.New(rand.NewSource(7))
			const n = 24
			g := New(n, directed)
			// Seed with random edges before the snapshot.
			for k := 0; k < 60; k++ {
				g.InsertEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), int64(1+rng.Intn(9)))
			}
			f := NewFlat(g)
			f.SetCompactThreshold(thr)
			for round := 0; round < 40; round++ {
				var b Batch
				for k := 0; k < 6; k++ {
					u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
					if rng.Intn(2) == 0 {
						b = append(b, Update{Kind: InsertEdge, From: u, To: v, W: int64(1 + rng.Intn(9))})
					} else {
						b = append(b, Update{Kind: DeleteEdge, From: u, To: v})
					}
				}
				applied := g.Apply(b.Net(directed))
				f.Stage(g, applied)
				f.MaybeCompact(g)
				checkFlatAgainstGraph(t, f, g)
			}
			if thr == 0 && f.Compactions() == 0 {
				t.Fatalf("threshold 0 never compacted")
			}
			if thr == 1e9 && f.Compactions() != 0 {
				t.Fatalf("huge threshold compacted anyway")
			}
		}
	}
}

// TestFlatResurrect checks the weight-replacement path: Net() turns a
// weight change into delete+insert, which must resurrect the tombstoned
// base entry with the new weight.
func TestFlatResurrect(t *testing.T) {
	g := New(3, true)
	g.InsertEdge(0, 1, 5)
	f := NewFlat(g)
	b := Batch{{Kind: DeleteEdge, From: 0, To: 1}, {Kind: InsertEdge, From: 0, To: 1, W: 9}}
	f.Stage(g, g.Apply(b))
	es := flatEdges(f, 0)
	if len(es) != 1 || es[0] != (Edge{To: 1, W: 9}) {
		t.Fatalf("resurrected edge = %v, want [{1 9}]", es)
	}
	// The resurrect wrote the base in place, not the overlay.
	_, _, _, extra := f.OutSpans(0)
	if len(extra) != 0 {
		t.Fatalf("overlay tail = %v, want empty", extra)
	}
}

// TestFlatCompactionBound is the staleness guard: with the default
// threshold, a long random stream keeps the overlay a bounded fraction of
// the base, so reads never degrade to all-overlay scans.
func TestFlatCompactionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 64
	g := New(n, false)
	for k := 0; k < 200; k++ {
		g.InsertEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1)
	}
	f := NewFlat(g)
	for round := 0; round < 300; round++ {
		var b Batch
		for k := 0; k < 8; k++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				b = append(b, Update{Kind: InsertEdge, From: u, To: v, W: 1})
			} else {
				b = append(b, Update{Kind: DeleteEdge, From: u, To: v})
			}
		}
		f.Stage(g, g.Apply(b.Net(false)))
		f.MaybeCompact(g)
		// After MaybeCompact the invariant must hold: ratio ≤ threshold.
		if f.OverlayRatio() > DefaultCompactThreshold {
			t.Fatalf("round %d: overlay ratio %.3f exceeds threshold", round, f.OverlayRatio())
		}
	}
	if f.Compactions() == 0 {
		t.Fatalf("long stream never triggered compaction")
	}
}

// TestFlatAppendOutSortedQuick quick-checks that AppendOutSorted returns
// exactly the graph's sorted neighbor set under random overlay churn.
func TestFlatAppendOutSortedQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		g := New(n, false)
		for k := 0; k < 30; k++ {
			g.InsertEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1)
		}
		f := NewFlat(g)
		f.SetCompactThreshold(1e9) // never compact: exercise the overlay path
		for round := 0; round < 10; round++ {
			var b Batch
			for k := 0; k < 5; k++ {
				u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if rng.Intn(2) == 0 {
					b = append(b, Update{Kind: InsertEdge, From: u, To: v, W: 1})
				} else {
					b = append(b, Update{Kind: DeleteEdge, From: u, To: v})
				}
			}
			f.Stage(g, g.Apply(b.Net(false)))
		}
		buf := make([]NodeID, 0, n)
		for u := 0; u < n; u++ {
			buf = f.AppendOutSorted(NodeID(u), buf[:0])
			want := graphEdges(g, NodeID(u), false)
			if len(buf) != len(want) {
				return false
			}
			for i := range buf {
				if buf[i] != want[i].To {
					return false
				}
			}
			if !sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i] < buf[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotBasic(t *testing.T) {
	g := New(4, false)
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	c := Snapshot(g)
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if got := c.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0) = %v, want sorted [1 2]", got)
	}
	if len(c.Neighbors(3)) != 0 || len(c.Neighbors(2)) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestSnapshotMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(30, true)
	g.Apply(randomBatch(rng, 30, 400))
	c := Snapshot(g)
	for u := 0; u < 30; u++ {
		want := graphEdges(g, NodeID(u), false)
		got := c.Neighbors(NodeID(u))
		if len(got) != len(want) {
			t.Fatalf("node %d: degree %d vs %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].To || c.Weights[int(c.Offsets[u])+i] != want[i].W {
				t.Fatalf("node %d: row %v vs %v", u, got, want)
			}
		}
	}
}

func TestSnapshotIn(t *testing.T) {
	g := New(4, true)
	g.InsertEdge(0, 2, 3)
	g.InsertEdge(1, 2, 4)
	g.InsertEdge(3, 2, 5)
	g.InsertEdge(2, 0, 6)
	c := SnapshotIn(g)
	if got := c.Neighbors(2); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("in-neighbors of 2 = %v", got)
	}
	if got := c.Neighbors(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("in-neighbors of 0 = %v", got)
	}
	if got := c.Neighbors(1); len(got) != 0 {
		t.Fatalf("in-neighbors of 1 = %v", got)
	}
}

// TestFlatGrow covers nodes added after the snapshot: their base row is
// empty and all adjacency lives in the overlay until the next compaction.
func TestFlatGrow(t *testing.T) {
	g := New(2, false)
	g.InsertEdge(0, 1, 1)
	f := NewFlat(g)
	f.SetCompactThreshold(1e9)
	v := g.AddNode(0)
	b := Batch{{Kind: InsertEdge, From: 0, To: v, W: 7}}
	f.Stage(g, g.Apply(b))
	checkFlatAgainstGraph(t, f, g)
	if es := flatEdges(f, v); len(es) != 1 || es[0].To != 0 {
		t.Fatalf("new node edges = %v", es)
	}
}
