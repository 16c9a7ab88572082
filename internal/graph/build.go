package graph

import "slices"

// rawEdge is one edge as a reader decoded it, before the graph holds it.
type rawEdge struct {
	u, v NodeID
	w    int64
}

// build lays out the rows of g, which must be fresh from blank, from the
// edges of lists taken in turn, in the arrays the graph keeps: a counting
// scatter by source (flatDir.scatter), each row with its free slot. An
// undirected graph's rows are then sorted where they lie, so a read holds
// one layout and no scratch copy of it; a directed graph's in-direction is
// the out-direction's transpose, and the out-direction the transpose of
// that, laid out over its own arrays — transposed walks leave every row
// sorted. The lists are read where they are (a text read's chunks), not
// joined. It returns the index, counted across the lists in turn, of the
// first edge that repeats one before it — which InsertEdge would have
// refused — or -1; past a refused edge g is not a graph anyone may use.
// Ids must already be in range and no edge a self-loop: the readers
// refuse one where they decode it.
func (g *Graph) build(lists [][]rawEdge) (refused int) {
	n, f := g.NumNodes(), &g.adj
	total := 0
	for _, edges := range lists {
		total += len(edges)
	}
	if f.directed {
		f.out.scatter(n, lists, false)
		f.in.transpose(&f.out)
		f.out.transpose(&f.in)
	} else {
		f.out.scatter(n, lists, true)
		f.out.sortRows()
	}
	g.numEdges = total
	// A repeated edge lists one neighbour twice in a sorted out-row, both
	// halves of an undirected edge included.
	for u := range f.out.rows {
		ts, _ := f.out.row(NodeID(u))
		for k := 1; k < len(ts); k++ {
			if ts[k-1] == ts[k] {
				return firstRepeat(lists, f.directed)
			}
		}
	}
	return -1
}

// scatter lays the edges of lists out into d by source, each row in the
// order its edges come and with one free slot. With both, an edge goes in
// at both of its ends.
func (d *flatDir) scatter(n int, lists [][]rawEdge, both bool) {
	d.rows = make([]span, n)
	for _, edges := range lists {
		for _, e := range edges {
			d.rows[e.u].hi++
			if both {
				d.rows[e.v].hi++
			}
		}
	}
	total := 0
	for u, r := range d.rows {
		lo := int32(total)
		total += int(r.hi) + 1
		d.rows[u] = span{lo, lo, int32(total)}
	}
	d.ts = fit[[]NodeID](nil, total)[:total]
	d.ws = fit[[]int64](nil, total)[:total]
	d.live = total - n
	put := func(u, v NodeID, w int64) {
		r := &d.rows[u]
		d.ts[r.hi], d.ws[r.hi] = v, w
		r.hi++
	}
	for _, edges := range lists {
		for _, e := range edges {
			put(e.u, e.v, e.w)
			if both {
				put(e.v, e.u, e.w)
			}
		}
	}
}

// shortRow is the longest row sortRows sorts by insertion.
const shortRow = 16

// sortRows sorts every row of d by target where it lies, each weight
// moving with its target. A short row is sorted by insertion; a longer
// one, unless in order already, through keys packing each target with
// its place in the row, whose sort is slices.Sort's, O(d log d) whatever
// the order, and a copy of the row's weights — scratch the size of the
// longest row, not of the layout.
func (d *flatDir) sortRows() {
	var keys []uint64
	var wbuf []int64
	for _, r := range d.rows {
		ts, ws := d.ts[r.lo:r.hi], d.ws[r.lo:r.hi]
		switch {
		case len(ts) <= shortRow:
			insertionSort(ts, ws)
			continue
		case slices.IsSorted(ts):
			continue
		}
		keys, wbuf = keys[:0], append(wbuf[:0], ws...)
		for k, t := range ts {
			keys = append(keys, uint64(t)<<32|uint64(k))
		}
		slices.Sort(keys)
		for k, key := range keys {
			ts[k], ws[k] = NodeID(key>>32), wbuf[uint32(key)]
		}
	}
}

// insertionSort sorts ts, and ws alongside it, by target.
func insertionSort(ts []NodeID, ws []int64) {
	for k := 1; k < len(ts); k++ {
		t, w := ts[k], ws[k]
		j := k
		for ; j > 0 && ts[j-1] > t; j-- {
			ts[j], ws[j] = ts[j-1], ws[j-1]
		}
		ts[j], ws[j] = t, w
	}
}

// firstRepeat returns the index, counted across lists in turn, of the
// first edge that repeats one before it (either orientation, when
// undirected). It runs only once a sorted row has shown a repeat, to
// name the one an insertion order meets first.
func firstRepeat(lists [][]rawEdge, directed bool) int {
	seen := make(map[uint64]struct{})
	i := 0
	for _, edges := range lists {
		for _, e := range edges {
			u, v := e.u, e.v
			if !directed && u > v {
				u, v = v, u
			}
			k := pack(u, v)
			if _, ok := seen[k]; ok {
				return i
			}
			seen[k] = struct{}{}
			i++
		}
	}
	return -1
}
