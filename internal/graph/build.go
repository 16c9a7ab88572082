package graph

// rawEdge is one edge as a reader decoded it, before the graph holds it.
type rawEdge struct {
	u, v NodeID
	w    int64
}

// build lays out the rows of g, which must be fresh from New, from the
// edges of lists taken in turn, in one pass: each row is sized once, as a
// slice of one shared array, and filled in the order InsertEdge called on
// the edges in turn would have appended to it, so row order, and
// everything that depends on it, is the same as if the edges had been
// inserted one by one. The lists are read where they are (a text read's
// chunks), not joined. It returns the index, counted across the lists in
// turn, of the first edge that repeats one before it — which InsertEdge
// would have refused — or -1; past a refused edge g is not a graph anyone
// may use. Ids must already be in range and no edge a self-loop: the
// readers refuse one where they decode it.
func (g *Graph) build(lists [][]rawEdge) (refused int) {
	// Row r is out[r] for r < n and, directed, in[r-n]: far is where the
	// second half of an edge goes.
	n := len(g.out)
	rows, far := n, 0
	if g.directed {
		rows, far = 2*n, n
	}
	// next[r] counts row r's entries, then holds where its next one goes.
	next := make([]int, rows)
	total := 0
	for _, edges := range lists {
		total += len(edges)
		for _, e := range edges {
			next[e.u]++
			next[far+int(e.v)]++
		}
	}
	off := 0
	for r, d := range next {
		next[r], off = off, off+d
	}
	entries := make([]Edge, 2*total)
	for _, edges := range lists {
		for _, e := range edges {
			entries[next[e.u]] = Edge{To: e.v, W: e.w}
			next[e.u]++
			entries[next[far+int(e.v)]] = Edge{To: e.u, W: e.w}
			next[far+int(e.v)]++
		}
	}
	start := 0
	for r, end := range next {
		if end == start {
			continue
		}
		// The capacity ends at the row: the first insert after the build
		// moves the row instead of writing into its neighbour's.
		row := entries[start:end:end]
		if r < n {
			g.out[r] = row
		} else {
			g.in[r-n] = row
		}
		start = end
	}
	g.numEdges = total
	// The stamp pass: a repeated edge lists one neighbour twice in an out
	// row, both halves of an undirected edge included.
	stamp := make([]int32, n)
	for u, row := range g.out {
		for _, e := range row {
			if stamp[e.To] == int32(u)+1 {
				return firstRepeat(lists, g.directed)
			}
			stamp[e.To] = int32(u) + 1
		}
	}
	return -1
}

// firstRepeat returns the index, counted across lists in turn, of the
// first edge that repeats one before it (either orientation, when
// undirected). It runs only once the stamp pass has found a repeat, to
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
