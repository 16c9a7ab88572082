package graph

import (
	"cmp"
	"slices"
	"sort"
)

// CSR is an immutable compressed-sparse-row snapshot of one direction of a
// graph's adjacency, each row sorted by neighbor id: the base a Flat view
// reads as contiguous struct-of-arrays spans and binary-searches on
// Stage.
type CSR struct {
	Offsets []int32
	Targets []NodeID
	Weights []int64
}

// Snapshot builds a CSR from the graph's current out-adjacency.
func Snapshot(g *Graph) *CSR { return buildCSR(nil, g.NumNodes(), g.Out) }

// SnapshotIn builds a CSR over the graph's in-adjacency: row u holds the
// sources of u's incoming edges, sorted by id. For undirected graphs this
// equals Snapshot.
func SnapshotIn(g *Graph) *CSR { return buildCSR(nil, g.NumNodes(), g.In) }

// buildCSR lays the n rows out end to end, each sorted by target. A
// non-nil c is refilled and returned: its arrays are reused where their
// capacity suffices, so rebuilding a snapshot of a graph that has not
// grown allocates nothing but the row-sorting scratch. The rows come from
// row alone, never from c's old content.
func buildCSR(c *CSR, n int, row func(NodeID) []Edge) *CSR {
	total, widest := 0, 0
	for u := 0; u < n; u++ {
		deg := len(row(NodeID(u)))
		total, widest = total+deg, max(widest, deg)
	}
	if c == nil {
		c = &CSR{}
	}
	c.Offsets = fit(c.Offsets, n+1)[:n+1]
	c.Targets = fit(c.Targets, total)
	c.Weights = fit(c.Weights, total)
	c.Offsets[0] = 0
	buf := make([]Edge, 0, widest)
	for u := 0; u < n; u++ {
		buf = append(buf[:0], row(NodeID(u))...)
		slices.SortFunc(buf, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		for _, e := range buf {
			c.Targets = append(c.Targets, e.To)
			c.Weights = append(c.Weights, e.W)
		}
		c.Offsets[u+1] = int32(len(c.Targets))
	}
	return c
}

// fit returns s emptied, with room for n entries. When it has to allocate
// it allows a sixteenth more, so a graph that gains a few edges between
// two compactions refills the arrays it has instead of replacing |E|-sized
// arrays every time (append's own growth would add a quarter, and keep it).
func fit[S ~[]E, E any](s S, n int) S {
	if cap(s) >= n {
		return s[:0]
	}
	return make(S, 0, n+n/16)
}

// NumNodes returns the number of rows in the snapshot.
func (c *CSR) NumNodes() int { return len(c.Offsets) - 1 }

// Neighbors returns u's sorted neighbor ids.
func (c *CSR) Neighbors(u NodeID) []NodeID {
	return c.Targets[c.Offsets[u]:c.Offsets[u+1]]
}

// DefaultCompactThreshold is the overlay-to-base ratio above which a Flat
// view rebuilds its CSR snapshots. 0.25 keeps overlay scans a small
// constant fraction of base scans while amortizing rebuild cost over many
// staged batches.
const DefaultCompactThreshold = 0.25

// Flat is a read-optimized adjacency view: a CSR base snapshot, unchanged
// between compactions, plus a small per-node delta overlay for edges staged since the snapshot
// was built. Hot loops iterate the base row as a dense struct-of-arrays
// span (targets and weights in separate contiguous slices) and then the
// short overlay tail, instead of chasing the graph's pointer-rich [][]Edge
// lists.
//
// A Flat is maintained alongside a Graph by the incremental maintainers:
// after g.Apply(batch) returns the effectively-applied updates, Stage
// replays exactly those updates into the overlay. Deletions of base edges
// are lazy tombstones (a dead-bit array parallel to the CSR targets);
// insertions go to a per-node overlay slice, except that reinserting a
// tombstoned base edge resurrects it in place with the new weight.
//
// The overlay is kept small: once the number of staged half-edge
// operations since the last rebuild exceeds a configurable fraction of the
// base size (see SetCompactThreshold and NeedCompact), MaybeCompact
// rebuilds the CSR from the graph and clears the overlay, so a long-lived
// process never degrades to all-overlay reads. The rebuild refills the
// arrays it replaces (the CSR is private to its single-writer Flat and the
// rows are read from the Graph), so a compaction allocates only when the
// graph outgrew them — and every span handed out earlier is invalid after
// it, as after a Stage.
//
// Flat tracks staged edge batches only. Callers that mutate the Graph
// through other entry points (DeleteNode, SetWeight) must Compact before
// the next read.
type Flat struct {
	directed  bool
	out       flatDir
	in        flatDir // unused when undirected; In* methods alias out
	threshold float64

	overlayOps  int   // staged half-edge ops since last compaction
	compactions int64 // total rebuilds, for observability
}

// flatDir is one direction (out- or in-adjacency) of a Flat view.
type flatDir struct {
	csr   *CSR
	dead  []bool   // parallel to csr.Targets; nil until first tombstone
	spare []bool   // the dead array of before the last rebuild, for the next first tombstone
	add   [][]Edge // per-node overlay inserts; empty rows are common
}

// NewFlat builds a Flat view of g's current adjacency with an empty
// overlay. For directed graphs both the out- and in-direction snapshots
// are built, because pull-style readers (SSSP's feasibility scan) walk
// in-edges.
func NewFlat(g *Graph) *Flat {
	f := &Flat{directed: g.Directed(), threshold: DefaultCompactThreshold}
	f.rebuild(g)
	return f
}

func (f *Flat) rebuild(g *Graph) {
	f.out.rebuild(g.NumNodes(), g.Out)
	if f.directed {
		f.in.rebuild(g.NumNodes(), g.In)
	}
	f.overlayOps = 0
}

// rebuild refills d from the graph's rows with an empty overlay, in the
// arrays d already holds.
func (d *flatDir) rebuild(n int, row func(NodeID) []Edge) {
	d.csr = buildCSR(d.csr, n, row)
	if d.dead != nil {
		d.spare, d.dead = d.dead, nil
	}
	d.add = fit(d.add, n)[:n]
	for u := range d.add {
		d.add[u] = d.add[u][:0]
	}
}

// SetCompactThreshold sets the overlay-to-base ratio above which
// MaybeCompact rebuilds the snapshots. Values at or below zero compact
// after every staged batch; the zero Flat default is
// DefaultCompactThreshold.
func (f *Flat) SetCompactThreshold(t float64) { f.threshold = t }

// Compactions returns how many times the CSR base has been rebuilt.
func (f *Flat) Compactions() int64 { return f.compactions }

// OverlayOps returns the number of half-edge operations staged since the
// last compaction.
func (f *Flat) OverlayOps() int { return f.overlayOps }

// OverlayRatio returns staged half-edge operations as a fraction of the
// base snapshot's half-edge entries. This is the staleness measure that
// NeedCompact compares against the threshold.
func (f *Flat) OverlayRatio() float64 {
	base := len(f.out.csr.Targets)
	if f.directed {
		base += len(f.in.csr.Targets)
	}
	return float64(f.overlayOps) / float64(base+1)
}

// NeedCompact reports whether the overlay has outgrown the configured
// fraction of the base and the snapshots should be rebuilt.
func (f *Flat) NeedCompact() bool {
	return f.overlayOps > 0 && f.OverlayRatio() > f.threshold
}

// Compact rebuilds the CSR snapshots from g and clears the overlay.
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

// Stage replays an effectively-applied batch into the overlay. The batch
// must be exactly what g.Apply returned for updates already applied to g:
// every insert was absent before and every delete was present, so Stage
// never sees redundant updates.
func (f *Flat) Stage(g *Graph, applied Batch) {
	f.grow(g.NumNodes())
	for _, u := range applied {
		switch u.Kind {
		case InsertEdge:
			f.out.insert(u.From, u.To, u.W)
			if f.directed {
				f.in.insert(u.To, u.From, u.W)
			} else {
				f.out.insert(u.To, u.From, u.W)
			}
		case DeleteEdge:
			f.out.remove(u.From, u.To)
			if f.directed {
				f.in.remove(u.To, u.From)
			} else {
				f.out.remove(u.To, u.From)
			}
		}
		f.overlayOps += 2
	}
}

// grow extends the overlay rows to cover nodes added after the snapshot
// was built. Such nodes have an empty base row until the next compaction.
func (f *Flat) grow(n int) {
	for len(f.out.add) < n {
		f.out.add = append(f.out.add, nil)
	}
	if f.directed {
		for len(f.in.add) < n {
			f.in.add = append(f.in.add, nil)
		}
	}
}

// baseIndex locates (u, v) in the base row by binary search.
func (d *flatDir) baseIndex(u, v NodeID) (int, bool) {
	if int(u) >= d.csr.NumNodes() {
		return 0, false
	}
	lo, hi := int(d.csr.Offsets[u]), int(d.csr.Offsets[u+1])
	row := d.csr.Targets[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return lo + i, true
	}
	return 0, false
}

func (d *flatDir) insert(u, v NodeID, w int64) {
	if i, ok := d.baseIndex(u, v); ok {
		// The edge exists in the base. Since the applied batch guarantees
		// it was absent from the graph, it must be tombstoned: resurrect
		// it in place with the new weight.
		if d.dead != nil {
			d.dead[i] = false
		}
		d.csr.Weights[i] = w
		return
	}
	d.add[u] = append(d.add[u], Edge{To: v, W: w})
}

func (d *flatDir) remove(u, v NodeID) {
	if row := d.add[u]; len(row) > 0 {
		for k := range row {
			if row[k].To == v {
				row[k] = row[len(row)-1]
				d.add[u] = row[:len(row)-1]
				return
			}
		}
	}
	if i, ok := d.baseIndex(u, v); ok {
		if d.dead == nil {
			d.dead = fit(d.spare, len(d.csr.Targets))[:len(d.csr.Targets)]
			clear(d.dead)
		}
		d.dead[i] = true
	}
}

// spans returns the raw base row (targets, weights, optional dead bits)
// and the overlay tail for u. A nil dead slice means no base entry in the
// row is tombstoned.
func (d *flatDir) spans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	if int(u) < d.csr.NumNodes() {
		lo, hi := d.csr.Offsets[u], d.csr.Offsets[u+1]
		ts = d.csr.Targets[lo:hi]
		ws = d.csr.Weights[lo:hi]
		if d.dead != nil {
			dead = d.dead[lo:hi]
		}
	}
	if int(u) < len(d.add) {
		extra = d.add[u]
	}
	return ts, ws, dead, extra
}

// OutSpans returns u's out-adjacency as struct-of-arrays spans: the base
// targets and weights (parallel slices), an optional dead-bit slice
// (nil means every base entry is live; otherwise skip entries whose bit
// is set), and the overlay tail of edges staged since the last
// compaction. The returned slices are owned by the Flat and valid until
// the next Stage or Compact.
func (f *Flat) OutSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	return f.out.spans(u)
}

// InSpans returns u's in-adjacency spans (same as OutSpans for undirected
// graphs). Each entry's target is the edge's source node.
func (f *Flat) InSpans(u NodeID) (ts []NodeID, ws []int64, dead []bool, extra []Edge) {
	if !f.directed {
		return f.out.spans(u)
	}
	return f.in.spans(u)
}

// EachOut calls fn for every live out-edge of u: first the base row in
// ascending target order, then the overlay tail in staging order.
func (f *Flat) EachOut(u NodeID, fn func(v NodeID, w int64)) {
	f.out.each(u, fn)
}

// EachIn calls fn for every live in-edge of u, passing the source node
// and weight (same as EachOut for undirected graphs).
func (f *Flat) EachIn(u NodeID, fn func(v NodeID, w int64)) {
	if !f.directed {
		f.out.each(u, fn)
		return
	}
	f.in.each(u, fn)
}

func (d *flatDir) each(u NodeID, fn func(v NodeID, w int64)) {
	ts, ws, dead, extra := d.spans(u)
	if dead == nil {
		for k, v := range ts {
			fn(v, ws[k])
		}
	} else {
		for k, v := range ts {
			if !dead[k] {
				fn(v, ws[k])
			}
		}
	}
	for _, e := range extra {
		fn(e.To, e.W)
	}
}

// AppendOutSorted appends u's live out-neighbor ids to buf in ascending
// order and returns the extended slice. The base row is already sorted;
// the short overlay tail is insertion-sorted into place. Depth-first
// traversals use this with a shared arena to visit neighbors in
// deterministic order without per-node allocation.
func (f *Flat) AppendOutSorted(u NodeID, buf []NodeID) []NodeID {
	ts, _, dead, extra := f.out.spans(u)
	base := len(buf)
	if dead == nil {
		buf = append(buf, ts...)
	} else {
		for k, v := range ts {
			if !dead[k] {
				buf = append(buf, v)
			}
		}
	}
	for _, e := range extra {
		buf = append(buf, e.To)
	}
	insertionSortFrom(buf, base)
	return buf
}
