package graph

// rawEdge is one edge as a reader decoded it, before the graph holds it.
type rawEdge struct {
	u, v NodeID
	w    int64
}

// build lays out the rows of g, which must be fresh from New, from edges
// in one pass: each row is sized once, as a slice of one shared array, and
// filled in the order InsertEdge called on the edges in turn would have
// appended to it, so row order, and everything that depends on it, is the
// same as if the edges had been inserted one by one. It returns the index
// of the first edge InsertEdge would have refused — a self-loop or the
// repeat of an edge before it — or -1; past a refused edge g is not a
// graph anyone may use. Ids must already be in range.
func (g *Graph) build(edges []rawEdge) (refused int) {
	refused = -1
	for i, e := range edges {
		if e.u == e.v {
			refused, edges = i, edges[:i]
			break
		}
	}
	// Row r is out[r] for r < n and, directed, in[r-n]: far is where the
	// second half of an edge goes.
	n := len(g.out)
	rows, far := n, 0
	if g.directed {
		rows, far = 2*n, n
	}
	// next[r] counts row r's entries, then holds where its next one goes.
	next := make([]int, rows)
	for _, e := range edges {
		next[e.u]++
		next[far+int(e.v)]++
	}
	off := 0
	for r, d := range next {
		next[r], off = off, off+d
	}
	entries := make([]Edge, 2*len(edges))
	for _, e := range edges {
		entries[next[e.u]] = Edge{To: e.v, W: e.w}
		next[e.u]++
		entries[next[far+int(e.v)]] = Edge{To: e.u, W: e.w}
		next[far+int(e.v)]++
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
	g.numEdges = len(edges)
	// The stamp pass: a repeated edge lists one neighbour twice in an out
	// row, both halves of an undirected edge included.
	stamp := make([]int32, n)
	for u, row := range g.out {
		for _, e := range row {
			if stamp[e.To] == int32(u)+1 {
				// edges ends before any self-loop: the repeat comes first.
				return firstRepeat(edges, g.directed)
			}
			stamp[e.To] = int32(u) + 1
		}
	}
	return refused
}

// firstRepeat returns the index of the first edge that repeats one before
// it (either orientation, when undirected). It runs only once the stamp
// pass has found a repeat, to name the one an insertion order meets first.
func firstRepeat(edges []rawEdge, directed bool) int {
	seen := make(map[uint64]struct{}, len(edges))
	for i, e := range edges {
		u, v := e.u, e.v
		if !directed && u > v {
			u, v = v, u
		}
		k := pack(u, v)
		if _, ok := seen[k]; ok {
			return i
		}
		seen[k] = struct{}{}
	}
	return -1
}
