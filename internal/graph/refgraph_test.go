package graph

// mapGraph is Graph as it was while it carried a position index: one hash
// entry per half-edge, keyed by (from, to), kept current by every edit.
// It is the reference the model-based test and BenchmarkEdgeOpsByDegree
// hold Graph against — same answers, same row order after every step — and
// exists in tests only.
type mapGraph struct {
	directed bool
	out      [][]Edge
	in       [][]Edge // nil when undirected
	outPos   map[uint64]int32
	inPos    map[uint64]int32 // nil when undirected
	numEdges int
}

func newMapGraph(n int, directed bool) *mapGraph {
	g := &mapGraph{
		directed: directed,
		out:      make([][]Edge, n),
		outPos:   make(map[uint64]int32),
	}
	if directed {
		g.in = make([][]Edge, n)
		g.inPos = make(map[uint64]int32)
	}
	return g
}

// has reports whether v is a node of the graph.
func (g *mapGraph) has(v NodeID) bool { return v >= 0 && int(v) < len(g.out) }

func (g *mapGraph) HasEdge(u, v NodeID) bool {
	_, ok := g.outPos[pack(u, v)]
	return ok
}

func (g *mapGraph) Weight(u, v NodeID) int64 {
	if i, ok := g.outPos[pack(u, v)]; ok {
		return g.out[u][i].W
	}
	return Infinity
}

func (g *mapGraph) InsertEdge(u, v NodeID, w int64) bool {
	if u == v || !g.has(u) || !g.has(v) || g.HasEdge(u, v) {
		return false
	}
	g.addHalf(u, v, w)
	if g.directed {
		g.inPos[pack(u, v)] = int32(len(g.in[v]))
		g.in[v] = append(g.in[v], Edge{To: u, W: w})
	} else {
		g.addHalf(v, u, w)
	}
	g.numEdges++
	return true
}

func (g *mapGraph) addHalf(u, v NodeID, w int64) {
	g.outPos[pack(u, v)] = int32(len(g.out[u]))
	g.out[u] = append(g.out[u], Edge{To: v, W: w})
}

func (g *mapGraph) DeleteEdge(u, v NodeID) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.delHalfOut(u, v)
	if g.directed {
		g.delHalfIn(u, v)
	} else {
		g.delHalfOut(v, u)
	}
	g.numEdges--
	return true
}

func (g *mapGraph) delHalfOut(u, v NodeID) {
	k := pack(u, v)
	i := g.outPos[k]
	last := int32(len(g.out[u]) - 1)
	if i != last {
		moved := g.out[u][last]
		g.out[u][i] = moved
		g.outPos[pack(u, moved.To)] = i
	}
	g.out[u] = g.out[u][:last]
	delete(g.outPos, k)
}

func (g *mapGraph) delHalfIn(u, v NodeID) {
	k := pack(u, v)
	i := g.inPos[k]
	last := int32(len(g.in[v]) - 1)
	if i != last {
		moved := g.in[v][last]
		g.in[v][i] = moved
		g.inPos[pack(moved.To, v)] = i
	}
	g.in[v] = g.in[v][:last]
	delete(g.inPos, k)
}

func (g *mapGraph) Clone() *mapGraph {
	c := &mapGraph{
		directed: g.directed,
		out:      cloneRows(g.out),
		in:       cloneRows(g.in),
		outPos:   make(map[uint64]int32, len(g.outPos)),
		numEdges: g.numEdges,
	}
	for k, v := range g.outPos {
		c.outPos[k] = v
	}
	if g.directed {
		c.inPos = make(map[uint64]int32, len(g.inPos))
		for k, v := range g.inPos {
			c.inPos[k] = v
		}
	}
	return c
}

// Apply is Graph.Apply over the indexed operations: Weight, then
// DeleteEdge, for a deletion.
func (g *mapGraph) Apply(b Batch) Batch {
	applied := make(Batch, 0, len(b))
	for _, u := range b {
		switch u.Kind {
		case InsertEdge:
			if g.InsertEdge(u.From, u.To, u.W) {
				applied = append(applied, u)
			}
		case DeleteEdge:
			w := g.Weight(u.From, u.To)
			if g.DeleteEdge(u.From, u.To) {
				applied = append(applied, Update{Kind: DeleteEdge, From: u.From, To: u.To, W: w})
			}
		}
	}
	return applied
}
