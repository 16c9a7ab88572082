package graph

// rawEdge is one edge as a reader decoded it, before the graph holds it.
type rawEdge struct {
	u, v NodeID
	w    int64
}

// build lays out the rows of g, which must be fresh from New, from the
// edges of lists taken in turn: a counting sort by source into scratch,
// then transposed walks (flatDir.transpose), which leave every row sorted
// with no row sorted. The lists are read where they are (a text read's
// chunks), not joined. It returns the index, counted across the lists in
// turn, of the first edge that repeats one before it — which InsertEdge
// would have refused — or -1; past a refused edge g is not a graph anyone
// may use. Ids must already be in range and no edge a self-loop: the
// readers refuse one where they decode it.
func (g *Graph) build(lists [][]rawEdge) (refused int) {
	n, f := g.NumNodes(), &g.adj
	total := 0
	for _, edges := range lists {
		total += len(edges)
	}
	if f.directed {
		// The scratch is the out-direction's own arrays: in is its
		// transpose, and out the transpose of in, laid out over it.
		f.out.scatter(n, lists, false)
		f.in.transpose(&f.out)
		f.out.transpose(&f.in)
	} else {
		var scratch flatDir
		scratch.scatter(n, lists, true)
		f.out.transpose(&scratch)
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

// scatter lays the edges of lists out into d by source, each row in no
// order and with no free room: the scratch a layout transposes. With both,
// an edge goes in at both of its ends. The arrays have room for the
// layout's free slots, so a transpose into d reuses them.
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
		d.rows[u] = span{int32(total), int32(total), int32(total) + r.hi}
		total += int(r.hi)
	}
	d.ts = fit[[]NodeID](nil, total+n)[:total]
	d.ws = fit[[]int64](nil, total+n)[:total]
	d.live = total
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
