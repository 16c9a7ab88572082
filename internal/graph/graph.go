// Package graph provides the mutable labeled graph substrate used by every
// algorithm in this repository: directed or undirected graphs with weighted
// edges held as unordered adjacency rows and nothing else (an edge is found
// by scanning a row: presence O(min(d_u, d_v)), deletion O(d_u + d_v), see
// Graph), batch update application (G ⊕ ΔG), temporal graphs, and the
// read-optimized Flat view the maintainers traverse: every row one sorted
// span of two parallel arrays, edited in place as batches are staged.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node. Node ids are dense: a graph with n nodes uses
// ids 0..n-1, and the node set is fixed when the graph is built (New,
// Read, ReadBinary, Clone), so an id held by a caller never dangles and an
// array sized to NumNodes stays sized. A vertex insertion is a batch of
// edge insertions at a node the graph was built with, still isolated.
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
// program (Update.Validate, Read, and the decoders of the log and of
// checkpoints, DecodeBatchBinary and ReadBinary): 0 ≤ w < Infinity. Every
// relaxation computes d + w on a finite d < Infinity = MaxInt64/4, so the
// upper bound is what keeps that sum from overflowing.
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
// The rows are the whole representation: 16 B per half-edge and no index
// beside them. An edge is found by scanning a row — for presence (HasEdge,
// Weight, the duplicate check of InsertEdge) the shorter of the two rows
// that hold it, O(min(d_u, d_v)); DeleteEdge needs its position in both,
// O(d_u + d_v). A scan reads 16 B per entry, four entries to a cache
// line. Deleting and reinserting one edge at a hub of degree d, rows cold
// (BenchmarkEdgeOpsByDegree; "map" is the position index keyed by (from,
// to) this type used to carry, which cost as much memory again as the
// rows themselves):
//
//	d      10     10²    10³    10⁴    10⁵
//	scan   0.22   0.37   1.04   5.8    55 µs
//	map    0.68   0.72   0.86   0.65   1.04 µs
//
// The scan loses past d ≈ 700; an index for rows beyond some degree is to
// be weighed only against a workload that has such hubs on its update path.
//
// Insertion appends and deletion swaps the last entry into the hole, so a
// row's order is a function of the edit sequence alone; generated streams
// and golden ledgers depend on it. The graph is a simple graph: at most one
// edge per ordered pair (per unordered pair when undirected); self-loops
// are rejected.
type Graph struct {
	directed bool
	labels   []Label
	out      [][]Edge
	in       [][]Edge // nil when undirected
	numEdges int

	// The store its maintainers share (store.go): the Flat view they
	// read, the rounds Advance applied, the last round's applied updates,
	// and whether the Flat missed part of that round to a panic.
	flat    *Flat
	round   uint64
	applied Batch
	torn    bool
}

// New returns an empty graph with n nodes, all labeled 0.
func New(n int, directed bool) *Graph {
	g := &Graph{
		directed: directed,
		labels:   make([]Label, n),
		out:      make([][]Edge, n),
	}
	if directed {
		g.in = make([][]Edge, n)
	}
	return g
}

func pack(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes. Use it to size per-node arrays.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges. Each undirected edge counts once.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |V| + |E|, the measure of |G| used throughout the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.numEdges }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// SetLabel assigns label l to node v.
func (g *Graph) SetLabel(v NodeID, l Label) { g.labels[v] = l }

// find returns the position of the entry for v in row, or -1.
func find(row []Edge, v NodeID) int {
	for i := range row {
		if row[i].To == v {
			return i
		}
	}
	return -1
}

// removeAt deletes entry i of *row by moving the last entry into its place:
// the one deletion order every row in the repository has ever had.
func removeAt(row *[]Edge, i int) {
	r := *row
	last := len(r) - 1
	r[i] = r[last]
	*row = r[:last]
}

// rows returns the two rows that hold edge (u, v): u's, where v is listed,
// and v's, where u is. ok is false when either id is no node of the graph,
// so arbitrary ids read as "no such edge" instead of indexing out of range.
func (g *Graph) rows(u, v NodeID) (atU, atV *[]Edge, ok bool) {
	if n := len(g.out); u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return nil, nil, false
	}
	if g.directed {
		return &g.out[u], &g.in[v], true
	}
	return &g.out[u], &g.out[v], true
}

// lookup returns the entry of edge (u, v) from the shorter of its two rows.
func (g *Graph) lookup(u, v NodeID) (Edge, bool) {
	atU, atV, ok := g.rows(u, v)
	if !ok {
		return Edge{}, false
	}
	row, far := *atU, v
	if len(*atV) < len(row) {
		row, far = *atV, u
	}
	if i := find(row, far); i >= 0 {
		return row[i], true
	}
	return Edge{}, false
}

// HasEdge reports whether edge (u, v) exists. For undirected graphs the
// pair is unordered. Ids outside the graph name no edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.lookup(u, v)
	return ok
}

// Weight returns the weight of edge (u, v), or Infinity if absent.
func (g *Graph) Weight(u, v NodeID) int64 {
	if e, ok := g.lookup(u, v); ok {
		return e.W
	}
	return Infinity
}

// InsertEdge adds edge (u, v) with weight w. It reports whether the edge
// was inserted; inserting an existing edge or a self-loop is a no-op that
// returns false.
func (g *Graph) InsertEdge(u, v NodeID, w int64) bool {
	if _, _, ok := g.rows(u, v); !ok || u == v || g.HasEdge(u, v) {
		return false
	}
	g.out[u] = append(g.out[u], Edge{To: v, W: w})
	if g.directed {
		g.in[v] = append(g.in[v], Edge{To: u, W: w})
	} else {
		g.out[v] = append(g.out[v], Edge{To: u, W: w})
	}
	g.numEdges++
	return true
}

// positions locates edge (u, v) in both of its rows, the shorter first so
// that an absent edge costs O(min(d_u, d_v)).
func (g *Graph) positions(u, v NodeID) (atU, atV *[]Edge, i, j int) {
	atU, atV, ok := g.rows(u, v)
	if !ok {
		return nil, nil, -1, -1
	}
	if len(*atV) < len(*atU) {
		if j = find(*atV, u); j < 0 {
			return nil, nil, -1, -1
		}
		return atU, atV, find(*atU, v), j
	}
	if i = find(*atU, v); i < 0 {
		return nil, nil, -1, -1
	}
	return atU, atV, i, find(*atV, u)
}

// DeleteEdge removes edge (u, v). It reports whether the edge existed.
func (g *Graph) DeleteEdge(u, v NodeID) bool {
	_, ok := g.RemoveEdge(u, v)
	return ok
}

// RemoveEdge removes edge (u, v) and returns the weight it had: one search
// where Weight followed by DeleteEdge makes two. ok is false, and the graph
// unchanged, when the edge does not exist.
func (g *Graph) RemoveEdge(u, v NodeID) (w int64, ok bool) {
	atU, atV, i, j := g.positions(u, v)
	if i < 0 {
		return 0, false
	}
	w = (*atU)[i].W
	removeAt(atU, i)
	removeAt(atV, j)
	g.numEdges--
	return w, true
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

// Clone returns a deep copy of the graph, rows in the same order. The
// copy is a store of its own, at round 0 and without a Flat view.
func (g *Graph) Clone() *Graph {
	return &Graph{
		directed: g.directed,
		labels:   slices.Clone(g.labels),
		out:      cloneRows(g.out),
		in:       cloneRows(g.in),
		numEdges: g.numEdges,
	}
}

func cloneRows(rows [][]Edge) [][]Edge {
	if rows == nil {
		return nil
	}
	c := make([][]Edge, len(rows))
	for i, es := range rows {
		c[i] = append([]Edge(nil), es...)
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

// CheckConsistent verifies the invariants the row scans rely on: every
// entry names a node of the graph other than its owner, no row lists a
// node twice, every half-edge has its other half (the in-entry of a
// directed edge, the mirror of an undirected one) with the same weight,
// and the counts agree.
// It is used by tests and costs O(|V| + |E|) with a map of its own.
func (g *Graph) CheckConsistent() error {
	if len(g.labels) != len(g.out) || (g.directed && len(g.in) != len(g.out)) || (!g.directed && g.in != nil) {
		return fmt.Errorf("per-node arrays disagree: %d labels, %d out, %d in", len(g.labels), len(g.out), len(g.in))
	}
	// halves collects every out-entry by (owner, neighbor); matching an
	// in-entry or a mirror consumes it, so a second match fails.
	halves := make(map[uint64]int64)
	for u, row := range g.out {
		for _, e := range row {
			if NodeID(u) == e.To {
				return fmt.Errorf("self-loop at %d", u)
			}
			if e.To < 0 || int(e.To) >= len(g.out) {
				return fmt.Errorf("edge (%d,%d) at an unknown node", u, e.To)
			}
			k := pack(NodeID(u), e.To)
			if _, dup := halves[k]; dup {
				return fmt.Errorf("row %d lists %d twice", u, e.To)
			}
			halves[k] = e.W
		}
	}
	count := len(halves)
	if !g.directed {
		if count != 2*g.numEdges {
			return fmt.Errorf("numEdges %d != half of %d", g.numEdges, count)
		}
		for u, row := range g.out {
			for _, e := range row {
				if w, ok := halves[pack(e.To, NodeID(u))]; !ok {
					return fmt.Errorf("undirected edge (%d,%d) has no mirror", u, e.To)
				} else if w != e.W {
					return fmt.Errorf("mirror weight mismatch on (%d,%d)", u, e.To)
				}
			}
		}
		return nil
	}
	if count != g.numEdges {
		return fmt.Errorf("numEdges %d != actual %d", g.numEdges, count)
	}
	for v, row := range g.in {
		for _, e := range row {
			k := pack(e.To, NodeID(v))
			if w, ok := halves[k]; !ok {
				return fmt.Errorf("in edge (%d,%d) missing from out, or listed twice", e.To, v)
			} else if w != e.W {
				return fmt.Errorf("in/out weight mismatch on (%d,%d)", e.To, v)
			}
			delete(halves, k)
		}
	}
	if len(halves) != 0 {
		return fmt.Errorf("%d out edge(s) missing from in", len(halves))
	}
	return nil
}
