package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// flatEdges collects u's out-edges from a Flat, in order.
func flatEdges(f *Flat, u NodeID) []Edge {
	ts, ws, _, _ := f.OutSpans(u)
	return spanEdges(ts, ws)
}

func flatInEdges(f *Flat, u NodeID) []Edge {
	ts, ws, _, _ := f.InSpans(u)
	return spanEdges(ts, ws)
}

func graphEdges(g *Graph, u NodeID, in bool) []Edge {
	if in {
		return inRow(g, u)
	}
	return outRow(g, u)
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
// thresholds: at 0 every batch's dead space is reclaimed, under a huge
// threshold MaybeCompact never fires.
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
				if f.MaybeCompact(g) && thr == 1e9 {
					t.Fatalf("huge threshold compacted anyway")
				}
				if thr == 0 && f.OverlayRatio() != 0 {
					t.Fatalf("threshold 0 left dead space %.3f", f.OverlayRatio())
				}
				checkFlatAgainstGraph(t, f, g)
			}
			if thr == 0 && f.Compactions() == 0 {
				t.Fatalf("threshold 0 never compacted")
			}
		}
	}
}

// TestFlatResurrect checks the weight-replacement path: Net() turns a
// weight change into delete+insert, which must leave the row holding the
// edge once, with the new weight.
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
	if es := flatInEdges(f, 1); len(es) != 1 || es[0] != (Edge{To: 0, W: 9}) {
		t.Fatalf("in-row of 1 = %v, want [{0 9}]", es)
	}
}

// TestFlatCompactionBound is the dead-space guard: with the default
// threshold, a long random stream keeps the space the edits open a bounded
// fraction of the live entries, so a scan never walks mostly empty arrays.
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
			t.Fatalf("round %d: dead space %.3f exceeds threshold", round, f.OverlayRatio())
		}
	}
	if f.Compactions() == 0 {
		t.Fatalf("long stream never triggered compaction")
	}
}

// TestFlatOutSpansQuick quick-checks that OutSpans returns exactly the
// graph's sorted neighbor set under random churn.
func TestFlatOutSpansQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		g := New(n, false)
		for k := 0; k < 30; k++ {
			g.InsertEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1)
		}
		f := NewFlat(g)
		f.SetCompactThreshold(1e9) // reclaim nothing: read the rows as edited
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
		for u := 0; u < n; u++ {
			buf, _, _, _ := f.OutSpans(NodeID(u))
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

// checkFlatRows holds every row of a staged copy f to g's own, in both
// directions, and f's arrays to the layout's invariants (checkLayout).
func checkFlatRows(f *Flat, g *Graph) error {
	for u := 0; u < g.NumNodes(); u++ {
		for _, in := range []bool{false, true} {
			got := flatEdges(f, NodeID(u))
			if in {
				got = flatInEdges(f, NodeID(u))
			}
			if want := graphEdges(g, NodeID(u), in); !sameEdges(got, want) {
				return fmt.Errorf("row %d (in=%v): copy %v, graph %v", u, in, got, want)
			}
		}
	}
	return checkLayout(f, g.NumNodes())
}

// TestFlatAgainstGraphModel runs random programs of staged batches against
// a copy made by NewFlat and the Graph it mirrors: inserts into full rows
// (each forces a move), deletes that empty a row, edits at a hub of degree
// over 10³, and compaction under thresholds 0, 0.05 and ∞, interleaved.
// After every step the copy must pass checkFlatRows.
func TestFlatAgainstGraphModel(t *testing.T) {
	program := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, hubDeg = 1200, 1100
		g := New(n, directed)
		for v := 1; v <= hubDeg; v++ {
			g.InsertEdge(0, NodeID(v), int64(v))
		}
		for k := 0; k < 2*n; k++ {
			g.InsertEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), int64(rng.Intn(9)))
		}
		f := NewFlat(g)
		node := func() NodeID { return NodeID(rng.Intn(g.NumNodes())) }
		for step := 0; step < 40; step++ {
			var b Batch
			op := ""
			switch k := rng.Intn(5); k {
			case 0: // fill one row past its room
				op = "fill"
				u := node()
				for i := 0; i < 8; i++ {
					b = append(b, Update{Kind: InsertEdge, From: u, To: node(), W: int64(rng.Intn(9))})
				}
			case 1: // empty one row
				op = "empty"
				u := node()
				for _, e := range outRow(g, u) {
					b = append(b, Update{Kind: DeleteEdge, From: u, To: e.To})
				}
				for _, e := range inRow(g, u) {
					b = append(b, Update{Kind: DeleteEdge, From: e.To, To: u})
				}
			case 2: // edit the hub
				op = "hub"
				for i := 0; i < 20; i++ {
					b = append(b, Update{Kind: UpdateKind(rng.Intn(2)), From: 0, To: node(), W: int64(rng.Intn(9))})
				}
			default:
				op = "random"
				for i := 0; i < 30; i++ {
					b = append(b, Update{Kind: UpdateKind(rng.Intn(2)), From: node(), To: node(), W: int64(rng.Intn(9))})
				}
			}
			f.Stage(g, g.Apply(b))
			thr := []float64{0, 0.05, math.Inf(1)}[rng.Intn(3)]
			f.SetCompactThreshold(thr)
			f.MaybeCompact(g)
			if err := checkFlatRows(f, g); err != nil {
				t.Errorf("seed %d directed=%v step %d (%s, threshold %g): %v", seed, directed, step, op, thr, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(program, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatStageAllocs: a batch whose rows all have room is edited into
// the arrays without allocating.
func TestFlatStageAllocs(t *testing.T) {
	g := New(50, false)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		g.InsertEdge(NodeID(rng.Intn(50)), NodeID(rng.Intn(50)), 1)
	}
	f := NewFlat(g)
	var del, ins Batch
	g.Edges(func(u, v NodeID, w int64) {
		if len(del) < 20 {
			del = append(del, Update{Kind: DeleteEdge, From: u, To: v, W: w})
			ins = append(ins, Update{Kind: InsertEdge, From: u, To: v, W: w})
		}
	})
	// g keeps every edge: Stage reads only its size, and never compacts
	// here, since a delete always frees the slot the insert then takes.
	if allocs := testing.AllocsPerRun(50, func() { f.Stage(g, del); f.Stage(g, ins) }); allocs != 0 {
		t.Fatalf("staging into rows with room allocates %.0f objects", allocs)
	}
	if f.Compactions() != 0 {
		t.Fatalf("rows with room compacted %d times", f.Compactions())
	}
	if err := checkLayout(f, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	checkFlatAgainstGraph(t, f, g)
}
