package graph

import (
	"fmt"
	"slices"
)

// fit returns s emptied, with room for n entries. When it has to allocate
// it allows a sixteenth more: the room a Flat's moved rows take before the
// arrays are full.
func fit[S ~[]E, E any](s S, n int) S {
	if cap(s) >= n {
		return s[:0]
	}
	return make(S, 0, n+n/16)
}

// DefaultCompactThreshold is the dead-space-to-live ratio (OverlayRatio)
// above which MaybeCompact lays a Flat's rows out again.
const DefaultCompactThreshold = 0.25

// compactShare sets what a moving row does when the arrays are full:
// compact them in place if that frees at least 1/compactShare of the
// slots a fresh layout takes (an entry per live edge and a free slot per
// row), the share DefaultCompactThreshold compacts at, and otherwise grow
// them by half. A compaction is then paid for by the room it frees, and a
// graph built edge by edge grows its arrays instead of compacting them
// over and over to the same capacity: gen.PowerLaw's 100,000 nodes and
// 399,990 edges, inserted one by one, take 12 compactions and 0.19 s,
// where compacting whenever the arrays are full took 108 and 0.50 s
// (TestBuildByInsertCompactions, BenchmarkBuildByInsert).
const compactShare = 4

// Flat is an adjacency layout: every row is one span of two parallel
// arrays, targets and weights, sorted by target, so hot loops read a row
// as a dense struct-of-arrays span and an edge is found by binary search.
// It is the graph's own adjacency (Graph.Flat) — Apply, InsertEdge and
// DeleteEdge edit it in place — and NewFlat makes an independent copy,
// which Stage keeps in step with the graph by the applied updates.
//
// A deletion binary-searches its row and shifts the rest of the row left;
// an insertion shifts right into the row's free room. A row without room
// first moves to the end of the arrays, with room for as many entries
// again, and leaves its old span dead; when the arrays have no room for
// it either they are compacted or grown (see compactShare).
//
// Compaction packs the rows in place, in the order they lie in the
// arrays, each with one free slot, and so reclaims the dead space;
// MaybeCompact does it when the dead space exceeds a fraction of the live
// entries (see SetCompactThreshold and NeedCompact). Every span handed out
// earlier is invalid after a compaction, as after any edit.
type Flat struct {
	directed  bool
	out       flatDir
	in        flatDir // unused when undirected; see rev
	threshold float64
}

// flatDir is one direction (out- or in-adjacency) of a Flat.
type flatDir struct {
	rows []span
	ts   []NodeID // targets; the arrays' length is the space the rows take
	ws   []int64
	live int // entries the rows hold
	// order lists the rows by where they lie, for compact's second pass.
	order       []int32
	compactions int64
}

// span places one row in a flatDir's arrays: its entries are ts[lo:hi],
// sorted, and it may grow in place up to end.
type span struct{ lo, hi, end int32 }

// NewFlat returns an independent copy of g's adjacency: Stage edits it
// by the updates g.Apply returns, and nothing else does.
func NewFlat(g *Graph) *Flat {
	f := &Flat{directed: g.Directed(), threshold: DefaultCompactThreshold}
	f.out.copyOf(&g.adj.out, nil)
	if f.directed {
		f.in.copyOf(&g.adj.in, nil)
	}
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

// empty lays d out with n empty rows, one free slot each.
func (d *flatDir) empty(n int) {
	d.rows = make([]span, n)
	for u := range d.rows {
		d.rows[u] = span{int32(u), int32(u), int32(u) + 1}
	}
	d.ts = fit[[]NodeID](nil, n)[:n]
	d.ws = fit[[]int64](nil, n)[:n]
}

// copyOf lays d out as src holding only the entries keep(u, v) is true
// for, v in row u (all of them when keep is nil): rows end to end in id
// order, each with one free slot, in fresh arrays.
func (d *flatDir) copyOf(src *flatDir, keep func(u, v NodeID) bool) {
	n := len(src.rows)
	total := n + src.live
	if keep != nil {
		total = n
		for u, r := range src.rows {
			for _, v := range src.ts[r.lo:r.hi] {
				if keep(NodeID(u), v) {
					total++
				}
			}
		}
	}
	d.rows = make([]span, n)
	d.ts = fit[[]NodeID](nil, total)[:total]
	d.ws = fit[[]int64](nil, total)[:total]
	d.live = total - n
	at := int32(0)
	for u, r := range src.rows {
		lo := at
		for k := r.lo; k < r.hi; k++ {
			if keep == nil || keep(NodeID(u), src.ts[k]) {
				d.ts[at], d.ws[at] = src.ts[k], src.ws[k]
				at++
			}
		}
		d.rows[u] = span{lo, at, at + 1}
		at++
	}
}

// transpose lays d out as the transpose of src: row v lists u, with its
// weight, for every entry v of src's row u. Walking src's rows in
// ascending id order writes every row of d in ascending order, so nothing
// is sorted, whatever order src's rows are in. Each row gets one free
// slot, in the arrays d holds where they suffice; src must not be d. It
// lays out a directed graph's reads (an undirected one sorts in place).
func (d *flatDir) transpose(src *flatDir) {
	n := len(src.rows)
	d.rows = fit(d.rows, n)[:n]
	clear(d.rows)
	for _, r := range src.rows {
		for _, v := range src.ts[r.lo:r.hi] {
			d.rows[v].hi++
		}
	}
	total := 0
	for v, r := range d.rows {
		lo := total
		total += int(r.hi) + 1
		d.rows[v] = span{int32(lo), int32(lo), int32(total)}
	}
	d.ts = fit(d.ts, total)[:total]
	d.ws = fit(d.ws, total)[:total]
	d.live = total - n
	for u, r := range src.rows {
		for k := r.lo; k < r.hi; k++ {
			x := &d.rows[src.ts[k]]
			d.ts[x.hi], d.ws[x.hi] = NodeID(u), src.ws[k]
			x.hi++
		}
	}
}

// dead returns the slots a compaction would reclaim: those the rows take
// beyond a fresh layout's entry per live edge and free slot per row. Rows
// that used their free slot take fewer, so the count stops at zero.
func (d *flatDir) dead() int { return max(len(d.ts)-d.live-len(d.rows), 0) }

// compact packs d's rows in place, in the order they lie in the arrays,
// each with one free slot. The first pass finds the rows by walking the
// arrays: each row's first slot holds a marker (^u) and the span the
// slot's entry, its size and its room while the pass runs, so every slot
// is read once and no row list is sorted. It packs the rows left and
// tight, each copied to where the rows before it end, and lists them in
// order; the second, from the last row back, moves each right by one
// slot for every row before it.
func (d *flatDir) compact() {
	d.compactions++
	n := len(d.rows)
	for u, r := range d.rows {
		d.rows[u] = span{int32(d.ts[r.lo]), r.hi - r.lo, r.end - r.lo}
		d.ts[r.lo] = ^NodeID(u)
	}
	d.order = slices.Grow(d.order[:0], n)
	at := int32(0)
	for p := int32(0); p < int32(len(d.ts)); {
		if d.ts[p] >= 0 {
			p++ // a dead slot
			continue
		}
		u := ^d.ts[p]
		r := &d.rows[u]
		d.ts[p] = NodeID(r.lo)
		size, room := r.hi, r.end
		*r = span{p, p + size, p + size}
		d.place(r, at)
		d.order = append(d.order, int32(u))
		at, p = at+size, p+room
	}
	total := int(at) + n
	if total > cap(d.ts) {
		d.grow(total)
	}
	d.ts, d.ws = d.ts[:total], d.ws[:total]
	end := int32(total)
	for k := n - 1; k >= 0; k-- {
		r := &d.rows[d.order[k]]
		d.place(r, end-1-(r.hi-r.lo))
		r.end = end
		end = r.lo
	}
}

// place copies row r's entries to start at lo, leaving it no free room.
func (d *flatDir) place(r *span, lo int32) {
	hi := lo + r.hi - r.lo
	copy(d.ts[lo:hi], d.ts[r.lo:r.hi])
	copy(d.ws[lo:hi], d.ws[r.lo:r.hi])
	*r = span{lo, hi, hi}
}

// grow replaces the arrays with ones of room for n slots and at least
// half as many again as they hold, every span where it was.
func (d *flatDir) grow(n int) {
	c := max(n, len(d.ts)+len(d.ts)/2)
	d.ts = append(make([]NodeID, 0, c), d.ts...)
	d.ws = append(make([]int64, 0, c), d.ws...)
}

// search returns where v is, or would go, in row u, and whether it is
// there.
func (d *flatDir) search(u, v NodeID) (int, bool) {
	r := d.rows[u]
	k, ok := slices.BinarySearch(d.ts[r.lo:r.hi], v)
	return int(r.lo) + k, ok
}

// insert puts (v, w) into row u at its sorted position, and reports
// false, changing nothing, when the row holds v already.
func (d *flatDir) insert(u, v NodeID, w int64) bool {
	i, ok := d.search(u, v)
	if ok {
		return false
	}
	r := &d.rows[u]
	if r.hi == r.end {
		k := i - int(r.lo)
		d.move(u)
		i = int(r.lo) + k
	}
	copy(d.ts[i+1:r.hi+1], d.ts[i:r.hi])
	copy(d.ws[i+1:r.hi+1], d.ws[i:r.hi])
	d.ts[i], d.ws[i] = v, w
	r.hi++
	d.live++
	return true
}

// move gives row u free room: it copies the row to the end of the arrays
// with room for twice its entries (at least four), or, when the arrays
// are full, compacts them (which leaves every row a free slot) or grows
// them first, as compactShare decides.
func (d *flatDir) move(u NodeID) {
	r := &d.rows[u]
	n := int(r.hi - r.lo)
	lo, room := len(d.ts), max(2*n, 4)
	if lo+room > cap(d.ts) {
		if d.dead()*compactShare >= d.live+len(d.rows) {
			d.compact()
			return
		}
		d.grow(lo + room)
	}
	d.ts, d.ws = d.ts[:lo+room], d.ws[:lo+room]
	copy(d.ts[lo:], d.ts[r.lo:r.hi])
	copy(d.ws[lo:], d.ws[r.lo:r.hi])
	*r = span{int32(lo), int32(lo + n), int32(lo + room)}
}

// remove deletes v from row u, shifting the rest of the row left, and
// returns its weight; ok is false, and nothing changed, when the row
// lacks v.
func (d *flatDir) remove(u, v NodeID) (w int64, ok bool) {
	i, ok := d.search(u, v)
	if !ok {
		return 0, false
	}
	r := &d.rows[u]
	w = d.ws[i]
	copy(d.ts[i:r.hi-1], d.ts[i+1:r.hi])
	copy(d.ws[i:r.hi-1], d.ws[i+1:r.hi])
	r.hi--
	d.live--
	return w, true
}

// row returns u's targets and weights, sorted by target.
func (d *flatDir) row(u NodeID) ([]NodeID, []int64) {
	r := d.rows[u]
	return d.ts[r.lo:r.hi:r.hi], d.ws[r.lo:r.hi:r.hi]
}

// SetCompactThreshold sets the dead-space-to-live ratio above which
// MaybeCompact lays the rows out again. At or below zero any dead space
// compacts.
func (f *Flat) SetCompactThreshold(t float64) { f.threshold = t }

// Compactions returns how many times a direction's rows have been laid
// out again.
func (f *Flat) Compactions() int64 { return f.out.compactions + f.in.compactions }

// OverlayRatio returns the dead space — the array slots a compaction
// would reclaim: spans moved rows left behind and free room deletions
// opened inside rows — as a fraction of the live entries. It is 0 on a
// freshly laid out Flat, and what NeedCompact compares against the
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

// Compact packs the rows in place, reclaiming all dead space. It reads
// nothing but f: the graph argument is the one f mirrors, and only names
// it.
func (f *Flat) Compact(*Graph) {
	f.out.compact()
	if f.directed {
		f.in.compact()
	}
}

// MaybeCompact compacts if NeedCompact holds and reports whether it did.
func (f *Flat) MaybeCompact(g *Graph) bool {
	if !f.NeedCompact() {
		return false
	}
	f.Compact(g)
	return true
}

// Stage edits into a copy made by NewFlat the updates g.Apply returned
// for a batch: every insert was absent before and every delete was
// present. An insert of an entry its row holds, or a delete of one it
// lacks, means the copy is out of step with the graph, and Stage panics.
// g's own adjacency already holds the batch, and Stage leaves it as it is.
func (f *Flat) Stage(g *Graph, applied Batch) {
	if f == &g.adj {
		return
	}
	rev := f.rev()
	for _, u := range applied {
		switch u.Kind {
		case InsertEdge:
			if !f.out.insert(u.From, u.To, u.W) || !rev.insert(u.To, u.From, u.W) {
				panic(fmt.Sprintf("graph: staged insert of %d→%d, which the flat row holds", u.From, u.To))
			}
		case DeleteEdge:
			if _, ok := f.out.remove(u.From, u.To); !ok {
				panic(fmt.Sprintf("graph: staged delete of %d→%d, which the flat row lacks", u.From, u.To))
			}
			rev.remove(u.To, u.From)
		}
	}
}

// OutSpans returns u's out-adjacency as one struct-of-arrays span:
// targets in ascending order and their weights, parallel slices owned by
// the Flat and valid until its next edit. dead and extra are always nil —
// they carried tombstones and an overlay tail before rows were edited in
// place, and the benchmark harness still reads all four results; the next
// change to the harness narrows the signature.
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
