package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// spanEdges returns a span as entries, in order.
func spanEdges(ts []NodeID, ws []int64) []Edge {
	es := make([]Edge, len(ts))
	for k, v := range ts {
		es[k] = Edge{To: v, W: ws[k]}
	}
	return es
}

// outRow returns u's out-row of g as entries, in order.
func outRow(g *Graph, u NodeID) []Edge {
	ts, ws, _, _ := g.Flat().OutSpans(u)
	return spanEdges(ts, ws)
}

// inRow returns u's in-row of g (its row, undirected) as entries, in order.
func inRow(g *Graph, u NodeID) []Edge {
	ts, ws, _, _ := g.Flat().InSpans(u)
	return spanEdges(ts, ws)
}

// sorted returns a copy of row ordered by target: the order the
// reference's append/swap-remove rows hold as sets.
func sorted(row []Edge) []Edge {
	c := slices.Clone(row)
	slices.SortFunc(c, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return c
}

// checkLayout holds f's arrays to the layout's own invariants: a row per
// node in each direction, spans inside the arrays and disjoint, each row
// strictly increasing, the live counts and the dead space OverlayRatio
// reports equal to a recount, and OutSpans/InSpans handing out no dead or
// extra slices.
func checkLayout(f *Flat, n int) error {
	dirs := []*flatDir{&f.out}
	if f.directed {
		dirs = append(dirs, &f.in)
	}
	dead, live := 0, 0
	for i, d := range dirs {
		if len(d.rows) != n || len(d.ws) != len(d.ts) {
			return fmt.Errorf("dir %d: %d rows for %d nodes, %d weights for %d targets", i, len(d.rows), n, len(d.ws), len(d.ts))
		}
		owner := make([]int32, len(d.ts))
		count := 0
		for u, r := range d.rows {
			if r.lo < 0 || r.lo > r.hi || r.hi > r.end || int(r.end) > len(d.ts) {
				return fmt.Errorf("dir %d row %d: span %+v outside %d slots", i, u, r, len(d.ts))
			}
			for k := r.lo; k < r.end; k++ {
				if owner[k] != 0 {
					return fmt.Errorf("dir %d rows %d and %d share slot %d", i, owner[k]-1, u, k)
				}
				owner[k] = int32(u) + 1
			}
			ts := d.ts[r.lo:r.hi]
			for k := 1; k < len(ts); k++ {
				if ts[k-1] >= ts[k] {
					return fmt.Errorf("dir %d row %d not strictly increasing: %v", i, u, ts)
				}
			}
			count += len(ts)
		}
		if count != d.live {
			return fmt.Errorf("dir %d: %d live entries counted, %d recounted", i, d.live, count)
		}
		dead += max(len(d.ts)-count-len(d.rows), 0)
		live += count
	}
	for u := 0; u < n; u++ {
		if _, _, dd, extra := f.OutSpans(NodeID(u)); dd != nil || extra != nil {
			return fmt.Errorf("out row %d: dead %v, extra %v", u, dd, extra)
		}
		if _, _, dd, extra := f.InSpans(NodeID(u)); dd != nil || extra != nil {
			return fmt.Errorf("in row %d: dead %v, extra %v", u, dd, extra)
		}
	}
	if want := float64(dead) / float64(live+1); f.OverlayRatio() != want {
		return fmt.Errorf("dead space %v, recounted %v", f.OverlayRatio(), want)
	}
	return nil
}

// sameRows reports the first row where f's spans differ from the
// reference's rows as sets.
func sameRows(f *Flat, m *mapGraph) error {
	for v := range m.out {
		ts, ws, _, _ := f.OutSpans(NodeID(v))
		if got, want := spanEdges(ts, ws), sorted(m.out[v]); !slices.Equal(got, want) {
			return fmt.Errorf("out row %d is %v, reference %v", v, got, want)
		}
		if m.directed {
			ts, ws, _, _ := f.InSpans(NodeID(v))
			if got, want := spanEdges(ts, ws), sorted(m.in[v]); !slices.Equal(got, want) {
				return fmt.Errorf("in row %d is %v, reference %v", v, got, want)
			}
		}
	}
	return nil
}

// diffModel reports the first difference between g and the indexed
// reference: counts, every row's spans (the reference's row as a set, in
// target order), the order Edges reports in — by source, then target —
// the layout's invariants, and CheckConsistent.
func diffModel(g *Graph, m *mapGraph) error {
	if g.NumNodes() != len(m.out) || g.NumEdges() != m.numEdges {
		return fmt.Errorf("counts: %d nodes %d edges, reference %d/%d", g.NumNodes(), g.NumEdges(), len(m.out), m.numEdges)
	}
	if err := sameRows(g.Flat(), m); err != nil {
		return err
	}
	var got, want []Update
	g.Edges(func(u, v NodeID, w int64) { got = append(got, Update{From: u, To: v, W: w}) })
	for u, row := range m.out {
		for _, e := range sorted(row) {
			if m.directed || NodeID(u) < e.To {
				want = append(want, Update{From: NodeID(u), To: e.To, W: e.W})
			}
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("Edges reports %v, reference %v", got, want)
	}
	if err := checkLayout(g.Flat(), g.NumNodes()); err != nil {
		return err
	}
	return g.CheckConsistent()
}

// modelThresholds are the compaction regimes the model runs under: every
// dead slot reclaimed, a little kept, the default, and never.
var modelThresholds = []float64{0, 0.05, DefaultCompactThreshold, math.Inf(1)}

// TestGraphAgainstMapModel drives Graph and the map-indexed reference
// through the same random programs over the whole mutating surface —
// InsertEdge, DeleteEdge, Apply, Clone, Filter — with ids that are no
// node of the graph mixed in, batches that fill one row past its room
// (each forces a move) or empty one, and edits at a hub whose degree
// passes 10³ on the larger graphs. Every graph starts from New and grows
// by the edits alone, so the arrays fill, compact and grow. A copy made
// by NewFlat takes every applied update by Stage. After every step the
// graph and the copy must hold the reference's rows (diffModel), under
// each compaction threshold of modelThresholds.
func TestGraphAgainstMapModel(t *testing.T) {
	program := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{8, 40, 1200}[rng.Intn(3)]
		thr := modelThresholds[rng.Intn(len(modelThresholds))]
		g, m := New(n, directed), newMapGraph(n, directed)
		g.Flat().SetCompactThreshold(thr)
		staged := NewFlat(g)
		staged.SetCompactThreshold(thr)
		var origG *Graph // what the last Clone or Filter was taken from
		var origM *mapGraph
		node := func() NodeID {
			switch k := rng.Intn(12); {
			case k == 0:
				return []NodeID{-1, NodeID(n), math.MaxInt32, math.MinInt32}[rng.Intn(4)]
			case k < 3 && n > 100:
				return 0 // the hub
			default:
				return NodeID(rng.Intn(n))
			}
		}
		steps := 300
		if n > 100 {
			steps = 60
		}
		for step := 0; step < steps; step++ {
			u, v, w := node(), node(), int64(rng.Intn(9))
			var got, want any
			var applied Batch
			op := ""
			switch k := rng.Intn(24); {
			case k < 7:
				op = fmt.Sprintf("InsertEdge(%d,%d,%d)", u, v, w)
				got, want = g.InsertEdge(u, v, w), m.InsertEdge(u, v, w)
				if got == true {
					applied = Batch{{Kind: InsertEdge, From: u, To: v, W: w}}
				}
			case k < 11:
				op = fmt.Sprintf("RemoveEdge(%d,%d)", u, v)
				wm, okm := m.Weight(u, v), m.DeleteEdge(u, v)
				if !okm {
					wm = 0
				}
				gw, ok := g.RemoveEdge(u, v)
				got, want = fmt.Sprint(gw, ok), fmt.Sprint(wm, okm)
				if ok {
					applied = Batch{{Kind: DeleteEdge, From: u, To: v, W: gw}}
				}
			case k < 18:
				b := make(Batch, 1+rng.Intn(8*n/100+8))
				for i := range b {
					b[i] = Update{Kind: UpdateKind(rng.Intn(9) / 4), From: node(), To: node(), W: int64(rng.Intn(9))}
				}
				op = fmt.Sprintf("Apply(%d updates)", len(b))
				applied = g.Apply(b)
				got, want = fmt.Sprint(applied), fmt.Sprint(m.Apply(b))
			case k < 20: // fill one row past its room, or empty it
				u = NodeID(rng.Intn(n))
				var b Batch
				if rng.Intn(2) == 0 {
					op = fmt.Sprintf("fill(%d)", u)
					for i := 0; i < 8; i++ {
						b = append(b, Update{Kind: InsertEdge, From: u, To: node(), W: int64(rng.Intn(9))})
					}
				} else {
					op = fmt.Sprintf("empty(%d)", u)
					for _, e := range outRow(g, u) {
						b = append(b, Update{Kind: DeleteEdge, From: u, To: e.To})
					}
					for _, e := range inRow(g, u) {
						b = append(b, Update{Kind: DeleteEdge, From: e.To, To: u})
					}
				}
				applied = g.Apply(b)
				got, want = fmt.Sprint(applied), fmt.Sprint(m.Apply(b))
			case k < 22:
				op = "Clone"
				origG, origM = g, m
				g, m = g.Clone(), m.Clone()
				g.Flat().SetCompactThreshold(thr)
			default:
				mod := NodeID(2 + rng.Intn(3))
				op = fmt.Sprintf("Filter(u%%%d == 0 || v%%%d == 0)", mod, mod)
				keep := func(u, v NodeID) bool { return u%mod == 0 || (!directed && v%mod == 0) }
				origG, origM = g, m
				g, m = g.Filter(keep), m.Filter(keep)
				g.Flat().SetCompactThreshold(thr)
				staged = NewFlat(g)
				staged.SetCompactThreshold(thr)
			}
			if got != want {
				t.Errorf("seed %d directed=%v n=%d step %d: %s = %v, reference %v", seed, directed, n, step, op, got, want)
				return false
			}
			staged.Stage(g, applied)
			staged.MaybeCompact(g)
			if err := diffModel(g, m); err != nil {
				t.Errorf("seed %d directed=%v n=%d threshold %g step %d after %s: %v", seed, directed, n, thr, step, op, err)
				return false
			}
			err := sameRows(staged, m)
			if err == nil {
				err = checkLayout(staged, n)
			}
			if err != nil {
				t.Errorf("seed %d directed=%v n=%d threshold %g step %d after %s: staged copy: %v", seed, directed, n, thr, step, op, err)
				return false
			}
			// Reads, hostile ids included, and the graph a copy left behind.
			a, b := node(), node()
			if g.HasEdge(a, b) != m.HasEdge(a, b) || g.Weight(a, b) != m.Weight(a, b) {
				t.Errorf("seed %d directed=%v step %d: HasEdge/Weight(%d,%d) = %v/%d, reference %v/%d",
					seed, directed, step, a, b, g.HasEdge(a, b), g.Weight(a, b), m.HasEdge(a, b), m.Weight(a, b))
				return false
			}
			if origG != nil {
				if err := diffModel(origG, origM); err != nil {
					t.Errorf("seed %d directed=%v step %d: an edit of a copy reached the original: %v", seed, directed, step, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(program, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeLookupsOutOfRange: ids that are no node of the graph name no
// edge: every lookup checks both endpoints before it indexes a row.
func TestEdgeLookupsOutOfRange(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := New(3, directed)
		g.InsertEdge(0, 1, 4)
		g.InsertEdge(1, 2, 5)
		hostile := []NodeID{-1, 3, math.MaxInt32, math.MinInt32}
		for _, bad := range hostile {
			for _, ok := range []NodeID{0, 1, bad} {
				for _, p := range [][2]NodeID{{bad, ok}, {ok, bad}} {
					u, v := p[0], p[1]
					if g.HasEdge(u, v) || g.Weight(u, v) != Infinity || g.DeleteEdge(u, v) || g.InsertEdge(u, v, 1) {
						t.Fatalf("directed=%v: (%d,%d) read as an edge", directed, u, v)
					}
					if _, removed := g.RemoveEdge(u, v); removed {
						t.Fatalf("directed=%v: RemoveEdge(%d,%d) removed something", directed, u, v)
					}
					if applied := g.Apply(Batch{{Kind: InsertEdge, From: u, To: v, W: 1}, {Kind: DeleteEdge, From: u, To: v}}); len(applied) != 0 {
						t.Fatalf("directed=%v: Apply on (%d,%d) applied %v", directed, u, v, applied)
					}
				}
			}
		}
		if g.NumEdges() != 2 || g.Weight(0, 1) != 4 || g.Weight(1, 2) != 5 {
			t.Fatalf("directed=%v: hostile ids changed the graph", directed)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}
