package dynconn

// ett maintains the Euler tours of one forest level: a sequence per tree
// containing one self-loop node per vertex and two arc nodes per tree
// edge. Vertex nodes are created lazily per level.
type ett struct {
	verts []*node          // self-loop node per vertex, nil until used
	arcs  map[uint64]*node // packed (u,v) -> arc node
}

func newETT(n int) *ett {
	return &ett{verts: make([]*node, n), arcs: make(map[uint64]*node)}
}

func packArc(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// vert returns v's self-loop node, creating a singleton tour on first use.
func (t *ett) vert(v int32) *node {
	if t.verts[v] == nil {
		x := &node{u: v, v: v}
		x.update()
		t.verts[v] = x
	}
	return t.verts[v]
}

// connected reports whether u and v are in the same tree at this level.
func (t *ett) connected(u, v int32) bool {
	if u == v {
		return true
	}
	if t.verts[u] == nil || t.verts[v] == nil {
		return false
	}
	return sameSeq(t.verts[u], t.verts[v])
}

// treeSize returns the number of vertices in v's tree.
func (t *ett) treeSize(v int32) int32 {
	x := t.vert(v)
	splay(x)
	return x.vcount
}

// reroot rotates v's tour so it starts at v's self-loop.
func (t *ett) reroot(v int32) {
	x := t.vert(v)
	l := detachLeft(x)
	merge(x, l)
}

// link joins the trees of u and v with tree edge (u, v).
func (t *ett) link(u, v int32) {
	t.reroot(u)
	t.reroot(v)
	a1 := &node{u: u, v: v}
	a1.update()
	a2 := &node{u: v, v: u}
	a2.update()
	t.arcs[packArc(u, v)] = a1
	t.arcs[packArc(v, u)] = a2
	splay(t.verts[u])
	splay(t.verts[v])
	merge(merge(merge(t.verts[u], a1), t.verts[v]), a2)
}

// cut removes tree edge (u, v), splitting the tour into the two subtrees.
func (t *ett) cut(u, v int32) {
	a1 := t.arcs[packArc(u, v)]
	a2 := t.arcs[packArc(v, u)]
	delete(t.arcs, packArc(u, v))
	delete(t.arcs, packArc(v, u))
	if index(a1) > index(a2) {
		a1, a2 = a2, a1
	}
	// Tour: A a1 B a2 C. Inner segment B is one subtree; A+C the other.
	a := detachLeft(a1)
	rest := detachRight(a1)
	_ = rest // rest = B a2 C; a2 is within it
	b := detachLeft(a2)
	c := detachRight(a2)
	_ = b // B stands alone as the inner tree
	merge(a, c)
}

// hasEdge reports whether (u, v) is a tree edge at this level.
func (t *ett) hasEdge(u, v int32) bool {
	_, ok := t.arcs[packArc(u, v)]
	return ok
}

// setFlag sets or clears a flag bit on v's vertex node, re-aggregating.
func (t *ett) setFlag(v int32, mask uint8, on bool) {
	x := t.vert(v)
	splay(x)
	if on {
		x.flags |= mask
	} else {
		x.flags &^= mask
	}
	x.update()
}

// anyFlagged returns a vertex in v's tree carrying mask, or -1.
func (t *ett) anyFlagged(v int32, mask uint8) int32 {
	x := t.vert(v)
	splay(x)
	f := findFlagged(x, mask)
	if f == nil {
		return -1
	}
	return f.u
}
