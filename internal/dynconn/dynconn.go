// Package dynconn implements fully dynamic connectivity after Holm, de
// Lichtenberg and Thorup (J. ACM 2001): a hierarchy of spanning forests
// maintained in Euler-tour trees with edge levels, supporting edge
// insertion and deletion in O(log² n) amortized and connectivity queries
// in O(log n). It is the substrate of the DynCC competitor in the paper's
// CC experiments (their reference [27]).
package dynconn

import "fmt"

type edgeInfo struct {
	level int
	tree  bool
}

// DynConn is a fully dynamic connectivity structure over a fixed vertex
// set.
type DynConn struct {
	n      int
	levels []*level
	edges  map[uint64]*edgeInfo // canonical key: min(u,v) first
	comps  int
}

type level struct {
	t    *ett
	adj  []map[uint64]bool // per vertex: canonical keys of non-tree edges here
	tadj []map[uint64]bool // per vertex: canonical keys of tree edges of exactly this level
}

// New creates a structure over n isolated vertices.
func New(n int) *DynConn {
	d := &DynConn{n: n, edges: make(map[uint64]*edgeInfo), comps: n}
	d.levels = append(d.levels, d.newLevel())
	return d
}

func (d *DynConn) newLevel() *level {
	return &level{
		t:    newETT(d.n),
		adj:  make([]map[uint64]bool, d.n),
		tadj: make([]map[uint64]bool, d.n),
	}
}

func canon(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return packArc(u, v)
}

func unpack(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// NumVertices returns the size of the vertex set.
func (d *DynConn) NumVertices() int { return d.n }

// Components returns the current number of connected components.
func (d *DynConn) Components() int { return d.comps }

// Connected reports whether u and v are connected.
func (d *DynConn) Connected(u, v int32) bool {
	return d.levels[0].t.connected(u, v)
}

// HasEdge reports whether edge {u, v} is present.
func (d *DynConn) HasEdge(u, v int32) bool {
	_, ok := d.edges[canon(u, v)]
	return ok
}

// Insert adds edge {u, v}. It reports whether the edge was new.
func (d *DynConn) Insert(u, v int32) bool {
	if u == v || d.HasEdge(u, v) {
		return false
	}
	key := canon(u, v)
	if !d.Connected(u, v) {
		d.edges[key] = &edgeInfo{level: 0, tree: true}
		d.levels[0].t.link(u, v)
		d.addTreeAdj(0, key)
		d.comps--
	} else {
		d.edges[key] = &edgeInfo{level: 0, tree: false}
		d.addNonTree(0, key)
	}
	return true
}

// Delete removes edge {u, v}. It reports whether the edge existed.
func (d *DynConn) Delete(u, v int32) bool {
	key := canon(u, v)
	info, ok := d.edges[key]
	if !ok {
		return false
	}
	delete(d.edges, key)
	if !info.tree {
		d.delNonTree(info.level, key)
		return true
	}
	// Tree edge: cut it from every forest it belongs to, then search for a
	// replacement from the highest level downward.
	d.delTreeAdj(info.level, key)
	cu, cv := unpack(key)
	for i := info.level; i >= 0; i-- {
		d.levels[i].t.cut(cu, cv)
	}
	if !d.replace(cu, cv, info.level) {
		d.comps++
	}
	return true
}

// replace searches levels lvl..0 for a replacement edge reconnecting the
// trees of u and v, pushing tree edges and scanned non-tree edges of the
// smaller side one level up (the HDT amortization). It reports whether a
// replacement was found.
func (d *DynConn) replace(u, v int32, lvl int) bool {
	for i := lvl; i >= 0; i-- {
		t := d.levels[i].t
		// Work on the smaller tree; keep u on that side.
		su, sv := t.treeSize(u), t.treeSize(v)
		side, other := u, v
		if su > sv {
			side, other = v, u
		}
		if i+1 >= len(d.levels) {
			d.levels = append(d.levels, d.newLevel())
		}
		// Push all level-i tree edges of the small tree to level i+1.
		for {
			x := t.anyFlagged(side, flagTree)
			if x < 0 {
				break
			}
			for key := range d.levels[i].tadj[x] {
				d.delTreeAdj(i, key)
				d.edges[key].level = i + 1
				d.addTreeAdj(i+1, key)
				a, b := unpack(key)
				d.levels[i+1].t.link(a, b)
			}
		}
		// Scan level-i non-tree edges incident to the small tree.
		for {
			x := t.anyFlagged(side, flagNonTree)
			if x < 0 {
				break
			}
			for key := range d.levels[i].adj[x] {
				a, b := unpack(key)
				y := a
				if y == x {
					y = b
				}
				if t.connected(y, other) {
					// Replacement found: promote it to a tree edge of
					// level i and relink forests 0..i.
					d.delNonTree(i, key)
					info := d.edges[key]
					info.tree = true
					info.level = i
					d.addTreeAdj(i, key)
					for j := 0; j <= i; j++ {
						d.levels[j].t.link(a, b)
					}
					return true
				}
				// Both endpoints on the small side: push to level i+1.
				d.delNonTree(i, key)
				d.edges[key].level = i + 1
				d.addNonTree(i+1, key)
			}
		}
	}
	return false
}

func (d *DynConn) addNonTree(i int, key uint64) {
	u, v := unpack(key)
	lv := d.levels[i]
	for _, x := range [2]int32{u, v} {
		if lv.adj[x] == nil {
			lv.adj[x] = make(map[uint64]bool)
		}
		if len(lv.adj[x]) == 0 {
			lv.t.setFlag(x, flagNonTree, true)
		}
		lv.adj[x][key] = true
	}
}

func (d *DynConn) delNonTree(i int, key uint64) {
	u, v := unpack(key)
	lv := d.levels[i]
	for _, x := range [2]int32{u, v} {
		delete(lv.adj[x], key)
		if len(lv.adj[x]) == 0 {
			lv.t.setFlag(x, flagNonTree, false)
		}
	}
}

func (d *DynConn) addTreeAdj(i int, key uint64) {
	u, v := unpack(key)
	lv := d.levels[i]
	for _, x := range [2]int32{u, v} {
		if lv.tadj[x] == nil {
			lv.tadj[x] = make(map[uint64]bool)
		}
		if len(lv.tadj[x]) == 0 {
			lv.t.setFlag(x, flagTree, true)
		}
		lv.tadj[x][key] = true
	}
}

func (d *DynConn) delTreeAdj(i int, key uint64) {
	u, v := unpack(key)
	lv := d.levels[i]
	for _, x := range [2]int32{u, v} {
		delete(lv.tadj[x], key)
		if len(lv.tadj[x]) == 0 {
			lv.t.setFlag(x, flagTree, false)
		}
	}
}

// Labels extracts a component labeling compatible with the fixpoint CC
// algorithms: each vertex is labeled with the minimum vertex id of its
// component. It walks each Euler tour once, costing O(n + tree edges).
func (d *DynConn) Labels() []int32 {
	lab := make([]int32, d.n)
	for i := range lab {
		lab[i] = -1
	}
	var members []int32
	var stack []*node
	for v := 0; v < d.n; v++ {
		if lab[v] >= 0 {
			continue
		}
		x := d.levels[0].t.verts[v]
		if x == nil {
			lab[v] = int32(v)
			continue
		}
		splay(x)
		members = members[:0]
		stack = append(stack[:0], x)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.isVertex() {
				members = append(members, n.u)
			}
			if n.l != nil {
				stack = append(stack, n.l)
			}
			if n.r != nil {
				stack = append(stack, n.r)
			}
		}
		min := members[0]
		for _, m := range members {
			if m < min {
				min = m
			}
		}
		for _, m := range members {
			lab[m] = min
		}
	}
	return lab
}

// CheckInvariants verifies structural invariants (levels, forests,
// adjacency bookkeeping). It is O(|E| log n) and meant for tests.
func (d *DynConn) CheckInvariants() error {
	for key, info := range d.edges {
		u, v := unpack(key)
		if info.tree {
			for j := 0; j <= info.level; j++ {
				if !d.levels[j].t.hasEdge(u, v) && !d.levels[j].t.hasEdge(v, u) {
					return fmt.Errorf("tree edge (%d,%d) level %d missing from forest %d", u, v, info.level, j)
				}
			}
			if !d.levels[info.level].tadj[u][key] || !d.levels[info.level].tadj[v][key] {
				return fmt.Errorf("tree edge (%d,%d) missing from tadj at level %d", u, v, info.level)
			}
		} else {
			if !d.levels[info.level].adj[u][key] || !d.levels[info.level].adj[v][key] {
				return fmt.Errorf("non-tree edge (%d,%d) missing from adj at level %d", u, v, info.level)
			}
			if !d.levels[info.level].t.connected(u, v) {
				return fmt.Errorf("non-tree edge (%d,%d) endpoints not connected at its level %d", u, v, info.level)
			}
		}
	}
	for i, lv := range d.levels {
		for x := 0; x < d.n; x++ {
			for key := range lv.adj[x] {
				if info := d.edges[key]; info == nil || info.tree || info.level != i {
					return fmt.Errorf("stale adj entry at level %d vertex %d", i, x)
				}
			}
			for key := range lv.tadj[x] {
				if info := d.edges[key]; info == nil || !info.tree || info.level != i {
					return fmt.Errorf("stale tadj entry at level %d vertex %d", i, x)
				}
			}
		}
	}
	return nil
}
