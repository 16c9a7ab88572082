package graph

import (
	"fmt"
	"slices"
)

// fit returns s emptied, with room for n entries. When it has to allocate
// it allows a sixteenth more: the room a Flat's moved rows take, and what
// lets a graph that gains a few edges between two compactions refill the
// arrays it has instead of replacing |E|-sized arrays every time
// (append's own growth would add a quarter, and keep it).
func fit[S ~[]E, E any](s S, n int) S {
	if cap(s) >= n {
		return s[:0]
	}
	return make(S, 0, n+n/16)
}

// DefaultCompactThreshold is the dead-space-to-live ratio (OverlayRatio)
// above which MaybeCompact lays a Flat view's rows out again.
const DefaultCompactThreshold = 0.25

// Flat is a read-optimized adjacency view: every row is one span of two
// parallel arrays, targets and weights, sorted by target, so hot loops
// read a row as a dense struct-of-arrays span instead of chasing the
// graph's pointer-rich [][]Edge lists. It is the one sorted-row layout:
// the batch algorithms that want sorted rows (lcc.Run, bc.Run) read a
// fresh NewFlat's.
//
// Every Graph keeps one Flat for the maintainers built on it (Graph.Flat):
// after g.Apply(batch) returns the effectively-applied updates,
// Graph.Advance has Stage edit exactly those updates into the rows in
// place. A deletion
// binary-searches its row and shifts the rest of the row left; an
// insertion shifts right into the row's free room. A row without room
// first moves to the end of the arrays, with room for as many entries
// again, and leaves its old span dead.
//
// Compaction lays the rows out again from the graph, end to end in id
// order with one free slot each, and so reclaims the dead space. Stage
// compacts when a moving row finds the arrays full; MaybeCompact when the
// dead space exceeds a fraction of the live entries (see
// SetCompactThreshold and NeedCompact). The arrays are refilled in place
// (they are private to the single-writer Flat and the rows are read from
// the Graph), so a compaction allocates only when the graph outgrew them —
// and every span handed out earlier is invalid after it, as after a Stage.
// The arrays are built with a sixteenth of headroom for moved rows; on the
// burst workload's stream that runs out a few times in 8,000 batches.
type Flat struct {
	directed  bool
	out       flatDir
	in        flatDir // unused when undirected; see rev
	threshold float64
	// laidOut: the rows are as rebuild laid them out, nothing staged since.
	laidOut bool

	compactions int64 // total rebuilds, for observability
}

// flatDir is one direction (out- or in-adjacency) of a Flat view.
type flatDir struct {
	rows []span
	ts   []NodeID // targets; the arrays' length is the space the rows take
	ws   []int64
	live int // entries the rows hold
}

// span places one row in a flatDir's arrays: its entries are ts[lo:hi],
// sorted, and it may grow in place up to end.
type span struct{ lo, hi, end int32 }

// NewFlat builds a Flat view of g's current adjacency. For directed graphs
// both the out- and in-direction are built, because pull-style readers
// (SSSP's feasibility scan) walk in-edges.
func NewFlat(g *Graph) *Flat {
	f := &Flat{directed: g.Directed(), threshold: DefaultCompactThreshold}
	f.rebuild(g)
	return f
}

// rev returns the direction that lists edge (u, v) in row v: the
// in-direction, or for an undirected graph the out-direction itself.
func (f *Flat) rev() *flatDir {
	if f.directed {
		return &f.in
	}
	return &f.out
}

func (f *Flat) rebuild(g *Graph) {
	f.laidOut = true
	n := g.NumNodes()
	if !f.directed {
		f.out.rebuild(n, g.Out, g.Out)
		return
	}
	f.out.rebuild(n, g.Out, g.In)
	f.in.rebuild(n, g.In, g.Out)
}

// rebuild lays d's rows out end to end in id order, each with one free
// slot, in the arrays d already holds where they suffice. No row is
// sorted: walking the other direction's rows (transposed, which lists u in
// row v for every entry v of row u) in ascending id order writes every
// row's entries in ascending order.
func (d *flatDir) rebuild(n int, row, transposed func(NodeID) []Edge) {
	d.rows = fit(d.rows, n)[:n]
	total := 0
	for u := range d.rows {
		lo := total
		total += len(row(NodeID(u))) + 1
		d.rows[u] = span{int32(lo), int32(lo), int32(total)}
	}
	d.ts = fit(d.ts, total)[:total]
	d.ws = fit(d.ws, total)[:total]
	d.live = total - n
	for v := 0; v < n; v++ {
		for _, e := range transposed(NodeID(v)) {
			r := &d.rows[e.To]
			d.ts[r.hi], d.ws[r.hi] = NodeID(v), e.W
			r.hi++
		}
	}
}

// dead returns the slots a compaction would reclaim: those the rows take
// beyond a fresh layout's entry per live edge and free slot per row. Rows
// that used their free slot take fewer, so the count stops at zero.
func (d *flatDir) dead() int { return max(len(d.ts)-d.live-len(d.rows), 0) }

// SetCompactThreshold sets the dead-space-to-live ratio above which
// MaybeCompact lays the rows out again. At or below zero any dead space
// compacts; the zero Flat default is DefaultCompactThreshold.
func (f *Flat) SetCompactThreshold(t float64) { f.threshold = t }

// Compactions returns how many times the rows have been laid out again.
func (f *Flat) Compactions() int64 { return f.compactions }

// OverlayRatio returns the view's dead space — the array slots a
// compaction would reclaim: spans moved rows left behind and free room
// deletions opened inside rows — as a fraction of its live entries. It is
// 0 on a freshly laid out view, and what NeedCompact compares against the
// threshold. (The name is the one the measure had when staged edits went
// to an overlay; the gauges that export it kept it.)
func (f *Flat) OverlayRatio() float64 {
	dead, live := f.out.dead(), f.out.live
	if f.directed {
		dead, live = dead+f.in.dead(), live+f.in.live
	}
	return float64(dead) / float64(live+1)
}

// NeedCompact reports whether dead space has outgrown the configured
// fraction of the live entries.
func (f *Flat) NeedCompact() bool {
	r := f.OverlayRatio()
	return r > 0 && r > f.threshold
}

// Compact lays the rows out again from g, reclaiming all dead space.
func (f *Flat) Compact(g *Graph) {
	f.rebuild(g)
	f.compactions++
}

// MaybeCompact compacts if NeedCompact holds and reports whether it did.
func (f *Flat) MaybeCompact(g *Graph) bool {
	if !f.NeedCompact() {
		return false
	}
	f.Compact(g)
	return true
}

// Stage edits an effectively-applied batch into the rows. The batch must
// be exactly what g.Apply returned for updates already applied to g:
// every insert was absent before and every delete was present. An insert
// of an entry its row holds, or a delete of one it lacks, means the view
// is out of step with the graph, and Stage panics. When a row must move
// and the arrays have no room left for it, Stage compacts from g, which
// already holds the whole batch, and is done.
func (f *Flat) Stage(g *Graph, applied Batch) {
	f.laidOut = false
	rev := f.rev()
	for _, u := range applied {
		switch u.Kind {
		case InsertEdge:
			if !f.out.insert(u.From, u.To, u.W) || !rev.insert(u.To, u.From, u.W) {
				f.Compact(g)
				return
			}
		case DeleteEdge:
			f.out.remove(u.From, u.To)
			rev.remove(u.To, u.From)
		}
	}
}

// insert puts (v, w) into row u at its sorted position. It reports false,
// changing nothing, when the row has no room and the arrays none to move
// it to.
func (d *flatDir) insert(u, v NodeID, w int64) bool {
	r := &d.rows[u]
	if r.hi == r.end && !d.move(r) {
		return false
	}
	k, ok := slices.BinarySearch(d.ts[r.lo:r.hi], v)
	if ok {
		panic(fmt.Sprintf("graph: staged insert of %d→%d, which the flat row holds", u, v))
	}
	i := int(r.lo) + k
	copy(d.ts[i+1:r.hi+1], d.ts[i:r.hi])
	copy(d.ws[i+1:r.hi+1], d.ws[i:r.hi])
	d.ts[i], d.ws[i] = v, w
	r.hi++
	d.live++
	return true
}

// move copies row r to the end of the arrays with room for twice its
// entries (at least four), and reports false if the arrays' capacity has
// none.
func (d *flatDir) move(r *span) bool {
	n := int(r.hi - r.lo)
	lo, room := len(d.ts), max(2*n, 4)
	if lo+room > cap(d.ts) {
		return false
	}
	d.ts, d.ws = d.ts[:lo+room], d.ws[:lo+room]
	copy(d.ts[lo:], d.ts[r.lo:r.hi])
	copy(d.ws[lo:], d.ws[r.lo:r.hi])
	*r = span{int32(lo), int32(lo + n), int32(lo + room)}
	return true
}

// remove deletes v from row u, shifting the rest of the row left.
func (d *flatDir) remove(u, v NodeID) {
	r := &d.rows[u]
	k, ok := slices.BinarySearch(d.ts[r.lo:r.hi], v)
	if !ok {
		panic(fmt.Sprintf("graph: staged delete of %d→%d, which the flat row lacks", u, v))
	}
	i := int(r.lo) + k
	copy(d.ts[i:r.hi-1], d.ts[i+1:r.hi])
	copy(d.ws[i:r.hi-1], d.ws[i+1:r.hi])
	r.hi--
	d.live--
}

// row returns u's targets and weights, sorted by target.
func (d *flatDir) row(u NodeID) ([]NodeID, []int64) {
	r := d.rows[u]
	return d.ts[r.lo:r.hi:r.hi], d.ws[r.lo:r.hi:r.hi]
}

// OutSpans returns u's out-adjacency as one struct-of-arrays span:
// targets in ascending order and their weights, parallel slices owned by
// the Flat and valid until the next Stage or Compact. dead and extra are
// always nil — they carried tombstones and an overlay tail before rows
// were edited in place, and the benchmark harness still reads all four
// results; the next change to the harness narrows the signature.
func (f *Flat) OutSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	ts, ws = f.out.row(u)
	return ts, ws, nil, nil
}

// InSpans returns u's in-adjacency span (same as OutSpans for undirected
// graphs). Each entry's target is the edge's source node.
func (f *Flat) InSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	ts, ws = f.rev().row(u)
	return ts, ws, nil, nil
}
