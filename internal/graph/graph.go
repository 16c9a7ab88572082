// Package graph provides the mutable labeled graph substrate used by every
// algorithm in this repository: directed or undirected graphs with weighted
// edges, O(1)-amortized edge insertion and deletion, batch update
// application (G ⊕ ΔG), temporal graphs, and read-optimized CSR snapshots.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node. Node ids are dense: a graph with n nodes uses
// ids 0..n-1. Deleted nodes keep their id (tombstoned) so that ids held by
// callers never dangle.
type NodeID int32

// Label is a node label drawn from a small alphabet, as in property graphs.
type Label int32

// Edge is one adjacency entry: the far endpoint and the edge weight.
// For unweighted graphs the weight is conventionally 1.
type Edge struct {
	To NodeID
	W  int64
}

// Infinity is the weight used as "no path" by shortest-path code. Edge
// weights are kept strictly below it (see checkWeight), so d + w with a
// finite d never wraps.
const Infinity int64 = math.MaxInt64 / 4

// checkWeight is the one gate on edge weights arriving from outside the
// program (Update.Validate, Read): 0 ≤ w < Infinity. Every relaxation
// computes d + w on a finite d < Infinity = MaxInt64/4, so the upper bound
// is what keeps that sum from overflowing.
func checkWeight(w int64) error {
	if w < 0 {
		return fmt.Errorf("negative weight %d", w)
	}
	if w >= Infinity {
		return fmt.Errorf("weight %d not below Infinity (%d)", w, Infinity)
	}
	return nil
}

// Graph is a mutable labeled graph. Directed graphs maintain both out- and
// in-adjacency; undirected graphs store each edge in both endpoint lists
// and expose them through the out-adjacency only.
//
// Edge insertion and deletion are O(1) amortized via a position index keyed
// by the (from, to) pair. The graph is a simple graph: at most one edge per
// ordered pair (per unordered pair when undirected); self-loops are
// rejected.
type Graph struct {
	directed bool
	labels   []Label
	alive    []bool
	out      [][]Edge
	in       [][]Edge // nil when undirected
	outPos   map[uint64]int32
	inPos    map[uint64]int32 // nil when undirected
	numEdges int
	numAlive int
}

// New returns an empty graph with n nodes, all labeled 0.
func New(n int, directed bool) *Graph {
	g := &Graph{
		directed: directed,
		labels:   make([]Label, n),
		alive:    make([]bool, n),
		out:      make([][]Edge, n),
		outPos:   make(map[uint64]int32),
		numAlive: n,
	}
	for i := range g.alive {
		g.alive[i] = true
	}
	if directed {
		g.in = make([][]Edge, n)
		g.inPos = make(map[uint64]int32)
	}
	return g
}

func pack(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of node ids ever allocated, including
// tombstoned (deleted) nodes. Use it to size per-node arrays.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumAlive returns the number of nodes that have not been deleted.
func (g *Graph) NumAlive() int { return g.numAlive }

// NumEdges returns the number of edges. Each undirected edge counts once.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |V| + |E|, the measure of |G| used throughout the paper.
func (g *Graph) Size() int { return g.numAlive + g.numEdges }

// Alive reports whether node v exists (has not been deleted).
func (g *Graph) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(g.alive) && g.alive[v]
}

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// SetLabel assigns label l to node v.
func (g *Graph) SetLabel(v NodeID, l Label) { g.labels[v] = l }

// AddNode allocates a fresh node with the given label and returns its id.
func (g *Graph) AddNode(l Label) NodeID {
	id := NodeID(len(g.out))
	g.labels = append(g.labels, l)
	g.alive = append(g.alive, true)
	g.out = append(g.out, nil)
	if g.directed {
		g.in = append(g.in, nil)
	}
	g.numAlive++
	return id
}

// DeleteNode removes node v and all its incident edges. It returns the
// deleted incident edges as updates (inserts of the removed edges), which
// callers can use to express the deletion as edge updates, the dual view
// used by the paper (§4, vertex updates).
func (g *Graph) DeleteNode(v NodeID) []Update {
	if !g.Alive(v) {
		return nil
	}
	var removed []Update
	for len(g.out[v]) > 0 {
		e := g.out[v][len(g.out[v])-1]
		removed = append(removed, Update{Kind: DeleteEdge, From: v, To: e.To, W: e.W})
		g.DeleteEdge(v, e.To)
	}
	if g.directed {
		for len(g.in[v]) > 0 {
			e := g.in[v][len(g.in[v])-1]
			removed = append(removed, Update{Kind: DeleteEdge, From: e.To, To: v, W: e.W})
			g.DeleteEdge(e.To, v)
		}
	}
	g.alive[v] = false
	g.numAlive--
	return removed
}

// HasEdge reports whether edge (u, v) exists. For undirected graphs the
// pair is unordered.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.outPos[pack(u, v)]
	return ok
}

// Weight returns the weight of edge (u, v), or Infinity if absent.
func (g *Graph) Weight(u, v NodeID) int64 {
	if i, ok := g.outPos[pack(u, v)]; ok {
		return g.out[u][i].W
	}
	return Infinity
}

// InsertEdge adds edge (u, v) with weight w. It reports whether the edge
// was inserted; inserting an existing edge or a self-loop is a no-op that
// returns false.
func (g *Graph) InsertEdge(u, v NodeID, w int64) bool {
	if u == v || !g.Alive(u) || !g.Alive(v) || g.HasEdge(u, v) {
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

func (g *Graph) addHalf(u, v NodeID, w int64) {
	g.outPos[pack(u, v)] = int32(len(g.out[u]))
	g.out[u] = append(g.out[u], Edge{To: v, W: w})
}

// DeleteEdge removes edge (u, v). It reports whether the edge existed.
func (g *Graph) DeleteEdge(u, v NodeID) bool {
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

func (g *Graph) delHalfOut(u, v NodeID) {
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

func (g *Graph) delHalfIn(u, v NodeID) {
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

// SetWeight updates the weight of an existing edge (u, v). It reports
// whether the edge existed.
func (g *Graph) SetWeight(u, v NodeID, w int64) bool {
	i, ok := g.outPos[pack(u, v)]
	if !ok {
		return false
	}
	g.out[u][i].W = w
	if g.directed {
		g.in[v][g.inPos[pack(u, v)]].W = w
	} else {
		g.out[v][g.outPos[pack(v, u)]].W = w
	}
	return true
}

// Out returns the out-adjacency of u (all neighbors when undirected).
// The returned slice is owned by the graph: callers must not mutate it and
// must not hold it across graph mutations.
func (g *Graph) Out(u NodeID) []Edge { return g.out[u] }

// In returns the in-adjacency of u for directed graphs, and the neighbor
// list (same as Out) for undirected graphs.
func (g *Graph) In(u NodeID) []Edge {
	if g.directed {
		return g.in[u]
	}
	return g.out[u]
}

// AppendOutSorted appends u's out-neighbor ids to buf in ascending order
// and returns the extended slice: the canonical enumeration order of the
// batch depth-first traversals (dfs.Run, bc.Run), which read the graph's
// own lists rather than a Flat view. Short rows are insertion-sorted in
// place; rows past the cut-off go through slices.Sort, so a power-law hub
// never costs quadratic time.
func (g *Graph) AppendOutSorted(u NodeID, buf []NodeID) []NodeID {
	base := len(buf)
	for _, e := range g.out[u] {
		buf = append(buf, e.To)
	}
	if row := buf[base:]; len(row) > 32 {
		slices.Sort(row)
		return buf
	}
	insertionSortFrom(buf, base)
	return buf
}

// insertionSortFrom sorts buf[base:] in place, leaving buf[:base] alone:
// linear on an already sorted region with a short unsorted tail, which is
// what a Flat row (sorted base + overlay tail) looks like.
func insertionSortFrom(buf []NodeID, base int) {
	for i := base + 1; i < len(buf); i++ {
		for j := i; j > base && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}

// OutDegree returns the number of outgoing edges of u.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// InDegree returns the number of incoming edges of u.
func (g *Graph) InDegree(u NodeID) int { return len(g.In(u)) }

// Degree returns the degree of u in an undirected graph.
func (g *Graph) Degree(u NodeID) int { return len(g.out[u]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		directed: g.directed,
		labels:   append([]Label(nil), g.labels...),
		alive:    append([]bool(nil), g.alive...),
		out:      make([][]Edge, len(g.out)),
		outPos:   make(map[uint64]int32, len(g.outPos)),
		numEdges: g.numEdges,
		numAlive: g.numAlive,
	}
	for i, es := range g.out {
		c.out[i] = append([]Edge(nil), es...)
	}
	for k, v := range g.outPos {
		c.outPos[k] = v
	}
	if g.directed {
		c.in = make([][]Edge, len(g.in))
		for i, es := range g.in {
			c.in[i] = append([]Edge(nil), es...)
		}
		c.inPos = make(map[uint64]int32, len(g.inPos))
		for k, v := range g.inPos {
			c.inPos[k] = v
		}
	}
	return c
}

// Edges calls fn for every edge. Undirected edges are reported once, with
// From < To.
func (g *Graph) Edges(fn func(u, v NodeID, w int64)) {
	for u := range g.out {
		for _, e := range g.out[u] {
			if g.directed || NodeID(u) < e.To {
				fn(NodeID(u), e.To, e.W)
			}
		}
	}
}

// CheckConsistent verifies internal invariants (index integrity, mirror
// edges, edge counts). It is used by tests and costs O(|V| + |E|).
func (g *Graph) CheckConsistent() error {
	count := 0
	for u := range g.out {
		for i, e := range g.out[u] {
			k := pack(NodeID(u), e.To)
			j, ok := g.outPos[k]
			if !ok || int(j) != i {
				return fmt.Errorf("out index broken for (%d,%d): have %d want %d", u, e.To, j, i)
			}
			if NodeID(u) == e.To {
				return fmt.Errorf("self-loop at %d", u)
			}
			count++
		}
	}
	if len(g.outPos) != count {
		return fmt.Errorf("outPos has %d entries, adjacency has %d", len(g.outPos), count)
	}
	if g.directed {
		inCount := 0
		for v := range g.in {
			for i, e := range g.in[v] {
				k := pack(e.To, NodeID(v))
				j, ok := g.inPos[k]
				if !ok || int(j) != i {
					return fmt.Errorf("in index broken for (%d,%d)", e.To, v)
				}
				if !g.HasEdge(e.To, NodeID(v)) {
					return fmt.Errorf("in edge (%d,%d) missing from out", e.To, v)
				}
				inCount++
			}
		}
		if inCount != count {
			return fmt.Errorf("in count %d != out count %d", inCount, count)
		}
		if count != g.numEdges {
			return fmt.Errorf("numEdges %d != actual %d", g.numEdges, count)
		}
	} else {
		if count != 2*g.numEdges {
			return fmt.Errorf("numEdges %d != half of %d", g.numEdges, count)
		}
		for u := range g.out {
			for _, e := range g.out[u] {
				if !g.HasEdge(e.To, NodeID(u)) {
					return fmt.Errorf("undirected edge (%d,%d) has no mirror", u, e.To)
				}
				if g.Weight(e.To, NodeID(u)) != e.W {
					return fmt.Errorf("mirror weight mismatch on (%d,%d)", u, e.To)
				}
			}
		}
	}
	return nil
}
