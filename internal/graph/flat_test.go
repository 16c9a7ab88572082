package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// flatEdges collects u's live out-edges from the flat view, sorted.
func flatEdges(f *Flat, u NodeID) []Edge {
	ts, ws, _, _ := f.OutSpans(u)
	return spanEdges(ts, ws)
}

func flatInEdges(f *Flat, u NodeID) []Edge {
	ts, ws, _, _ := f.InSpans(u)
	return spanEdges(ts, ws)
}

func spanEdges(ts []NodeID, ws []int64) []Edge {
	var es []Edge
	for k, v := range ts {
		es = append(es, Edge{To: v, W: ws[k]})
	}
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

// checkFlatRows holds every row of f to g's, with the layout's own
// invariants: each row strictly increasing and, with its weights, the
// graph's row as a set; spans inside the arrays and disjoint; the live
// count and the dead space OverlayRatio reports equal to a recount; and
// OutSpans/InSpans handing out no dead or extra slices.
func checkFlatRows(f *Flat, g *Graph) error {
	type dir struct {
		name  string
		d     *flatDir
		row   func(NodeID) []Edge
		spans func(NodeID) ([]NodeID, []int64, []bool, []Edge)
	}
	dirs := []dir{{"out", &f.out, g.Out, f.OutSpans}}
	if f.directed {
		dirs = append(dirs, dir{"in", &f.in, g.In, f.InSpans})
	}
	dead, live := 0, 0
	for _, x := range dirs {
		if len(x.d.rows) != g.NumNodes() {
			return fmt.Errorf("%s: %d rows for %d nodes", x.name, len(x.d.rows), g.NumNodes())
		}
		owner := make([]int32, len(x.d.ts))
		n := 0
		for u := range x.d.rows {
			r := x.d.rows[u]
			if r.lo < 0 || r.lo > r.hi || r.hi > r.end || int(r.end) > len(x.d.ts) {
				return fmt.Errorf("%s row %d: span %+v outside %d slots", x.name, u, r, len(x.d.ts))
			}
			for k := r.lo; k < r.end; k++ {
				if owner[k] != 0 {
					return fmt.Errorf("%s rows %d and %d share slot %d", x.name, owner[k]-1, u, k)
				}
				owner[k] = int32(u) + 1
			}
			ts, ws, dd, extra := x.spans(NodeID(u))
			if dd != nil || extra != nil {
				return fmt.Errorf("%s row %d: dead %v, extra %v", x.name, u, dd, extra)
			}
			want := append([]Edge(nil), x.row(NodeID(u))...)
			slices.SortFunc(want, func(a, b Edge) int { return int(a.To) - int(b.To) })
			if len(ts) != len(want) || len(ws) != len(want) {
				return fmt.Errorf("%s row %d: %v, graph %v", x.name, u, ts, want)
			}
			for k := range ts {
				if k > 0 && ts[k-1] >= ts[k] {
					return fmt.Errorf("%s row %d not strictly increasing: %v", x.name, u, ts)
				}
				if (Edge{ts[k], ws[k]}) != want[k] {
					return fmt.Errorf("%s row %d: %v %v, graph %v", x.name, u, ts, ws, want)
				}
			}
			n += len(ts)
		}
		if n != x.d.live {
			return fmt.Errorf("%s: %d live entries counted, %d recounted", x.name, x.d.live, n)
		}
		dead += max(len(x.d.ts)-n-len(x.d.rows), 0)
		live += n
	}
	if want := float64(dead) / float64(live+1); f.OverlayRatio() != want {
		return fmt.Errorf("dead space %v, recounted %v", f.OverlayRatio(), want)
	}
	return nil
}

// TestFlatAgainstGraphModel runs random programs of staged batches against
// a Flat and the Graph it mirrors: inserts into full rows (each forces a
// move), deletes that empty a row, edits at a hub of degree over 10³,
// and compaction under thresholds 0, 0.05 and ∞, interleaved. After every
// step the rows must pass checkFlatRows.
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
				for _, e := range g.Out(u) {
					b = append(b, Update{Kind: DeleteEdge, From: u, To: e.To})
				}
				for _, e := range g.In(u) {
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
	if err := checkFlatRows(f, g); err != nil {
		t.Fatal(err)
	}
}

// TestRelayoutOnlyAfterStage: Relayout lays the Flat out again only when
// something was staged into it since it was last laid out, so the classes
// a recovery recomputes one after another pay for one layout between
// them; a view as NewFlat or a compaction left it is what the rows hold.
func TestRelayoutOnlyAfterStage(t *testing.T) {
	g := New(4, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 1)
	f := g.Flat()
	g.Relayout()
	if c := f.Compactions(); c != 0 {
		t.Fatalf("a view nothing was staged into was laid out %d times", c)
	}
	g.Advance(Batch{{Kind: InsertEdge, From: 2, To: 3, W: 1}})
	staged := f.Compactions()
	for i := 0; i < 3; i++ {
		g.Relayout()
		if c := f.Compactions(); c != staged+1 {
			t.Fatalf("relayout %d after a stage: %d layouts, want %d", i, c-staged, 1)
		}
	}
	if got, _, _, _ := f.OutSpans(2); !slices.Equal(got, []NodeID{1, 3}) {
		t.Errorf("row 2 after the relayout: %v", got)
	}
}
