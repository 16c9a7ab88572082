// Package graph provides the mutable labeled graph substrate used by every
// algorithm in this repository: directed or undirected graphs with weighted
// edges held in one adjacency layout, every row a span of two parallel
// arrays sorted by target (Flat), found by binary search and edited in
// place — a lookup is O(log d) — plus batch update application (G ⊕ ΔG)
// and temporal graphs.
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
// in-adjacency; undirected graphs store each edge in both endpoint rows
// and expose them through the out-adjacency only.
//
// The adjacency is one Flat (Graph.Flat), the graph's own and its only
// copy of the edges: every row a span of targets and weights sorted by
// target, 12 B per half-edge and one free slot per row. An edge is found
// by binary search of its source's row, O(log d); InsertEdge and
// DeleteEdge shift the rest of both rows that hold the edge, O(d_u + d_v)
// in the worst case and a memmove at that. Rows are sorted, so a row's
// order — and everything that reads one in order: generated streams,
// golden ledgers, the codecs — is a function of the edge set alone. The
// graph is a simple graph: at most one edge per ordered pair (per
// unordered pair when undirected); self-loops are rejected.
type Graph struct {
	labels   []Label
	adj      Flat
	numEdges int

	// The store its maintainers share (store.go): the rounds Advance
	// applied and the last round's applied updates.
	round   uint64
	applied Batch
}

// New returns an empty graph with n nodes, all labeled 0.
func New(n int, directed bool) *Graph {
	g := blank(n, directed)
	g.adj.out.empty(n)
	if directed {
		g.adj.in.empty(n)
	}
	return g
}

// blank returns a graph of n nodes, all labeled 0, with no rows laid out:
// the readers' graph, whose rows build lays out once every edge is read.
func blank(n int, directed bool) *Graph {
	return &Graph{labels: make([]Label, n), adj: Flat{directed: directed, threshold: DefaultCompactThreshold}}
}

func pack(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.adj.directed }

// NumNodes returns the number of nodes. Use it to size per-node arrays.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of edges. Each undirected edge counts once.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |V| + |E|, the measure of |G| used throughout the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.numEdges }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// SetLabel assigns label l to node v.
func (g *Graph) SetLabel(v NodeID, l Label) { g.labels[v] = l }

// holds reports whether u and v are both nodes of the graph, so that
// arbitrary ids read as "no such edge" instead of indexing out of range.
func (g *Graph) holds(u, v NodeID) bool {
	n := len(g.labels)
	return u >= 0 && int(u) < n && v >= 0 && int(v) < n
}

// HasEdge reports whether edge (u, v) exists. For undirected graphs the
// pair is unordered. Ids outside the graph name no edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.holds(u, v) {
		return false
	}
	_, ok := g.adj.out.search(u, v)
	return ok
}

// Weight returns the weight of edge (u, v), or Infinity if absent.
func (g *Graph) Weight(u, v NodeID) int64 {
	if !g.holds(u, v) {
		return Infinity
	}
	if i, ok := g.adj.out.search(u, v); ok {
		return g.adj.out.ws[i]
	}
	return Infinity
}

// InsertEdge adds edge (u, v) with weight w. It reports whether the edge
// was inserted; inserting an existing edge or a self-loop is a no-op that
// returns false.
func (g *Graph) InsertEdge(u, v NodeID, w int64) bool {
	if !g.holds(u, v) || u == v || !g.adj.out.insert(u, v, w) {
		return false
	}
	g.adj.rev().insert(v, u, w)
	g.numEdges++
	return true
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
	if !g.holds(u, v) {
		return 0, false
	}
	if w, ok = g.adj.out.remove(u, v); ok {
		g.adj.rev().remove(v, u)
		g.numEdges--
	}
	return w, ok
}

// Clone returns a deep copy of the graph. The copy is a store of its own,
// at round 0, its rows laid out afresh with the original's dead space left
// behind.
func (g *Graph) Clone() *Graph { return g.Filter(nil) }

// Filter returns a copy of g, labels included, that holds only the edges
// keep(u, v) is true for (every edge when keep is nil), in one pass over
// each direction's rows: a row filtered stays sorted, so the copy is laid
// out as it is read. keep meets an undirected edge at both of its ends,
// once as (u, v) and once as (v, u), and must answer alike.
func (g *Graph) Filter(keep func(u, v NodeID) bool) *Graph {
	c := &Graph{labels: slices.Clone(g.labels), adj: Flat{directed: g.adj.directed, threshold: DefaultCompactThreshold}}
	c.adj.out.copyOf(&g.adj.out, keep)
	c.numEdges = c.adj.out.live
	if g.adj.directed {
		var flip func(u, v NodeID) bool
		if keep != nil {
			flip = func(v, u NodeID) bool { return keep(u, v) }
		}
		c.adj.in.copyOf(&g.adj.in, flip)
	} else {
		c.numEdges /= 2
	}
	return c
}

// Edges calls fn for every edge, by source and then target in ascending
// order. Undirected edges are reported once, with From < To.
func (g *Graph) Edges(fn func(u, v NodeID, w int64)) {
	d := &g.adj.out
	for u, r := range d.rows {
		for k := r.lo; k < r.hi; k++ {
			if v := d.ts[k]; g.adj.directed || NodeID(u) < v {
				fn(NodeID(u), v, d.ws[k])
			}
		}
	}
}

// CheckConsistent verifies the invariants the binary searches rely on:
// one row per node in each direction, every row a span inside its arrays
// and strictly increasing, every entry naming a node of the graph other
// than its owner, every half-edge having its other half (the in-entry of
// a directed edge, the mirror of an undirected one) with the same weight,
// and the counts agreeing. It is used by tests and costs O(|E| log d).
func (g *Graph) CheckConsistent() error {
	f := &g.adj
	dirs := []*flatDir{&f.out}
	if f.directed {
		dirs = append(dirs, &f.in)
	}
	for _, d := range dirs {
		if len(d.rows) != len(g.labels) {
			return fmt.Errorf("per-node arrays disagree: %d labels, %d rows", len(g.labels), len(d.rows))
		}
		live := 0
		for u, r := range d.rows {
			if r.lo < 0 || r.lo > r.hi || r.hi > r.end || int(r.end) > len(d.ts) {
				return fmt.Errorf("row %d: span %+v outside %d slots", u, r, len(d.ts))
			}
			ts := d.ts[r.lo:r.hi]
			for k, v := range ts {
				if v < 0 || int(v) >= len(g.labels) {
					return fmt.Errorf("edge (%d,%d) at an unknown node", u, v)
				}
				if v == NodeID(u) {
					return fmt.Errorf("self-loop at %d", u)
				}
				if k > 0 && ts[k-1] >= v {
					return fmt.Errorf("row %d not strictly increasing at %d", u, v)
				}
			}
			live += len(ts)
		}
		if live != d.live {
			return fmt.Errorf("%d live entries counted, %d recounted", d.live, live)
		}
	}
	want := g.numEdges
	if !f.directed {
		want *= 2
	}
	if f.out.live != want || (f.directed && f.in.live != want) {
		return fmt.Errorf("numEdges %d, but %d out and %d in entries", g.numEdges, f.out.live, f.in.live)
	}
	// Every half-edge's other half: with the counts equal and no row
	// listing a node twice, that makes the halves a bijection.
	rev := f.rev()
	for u, r := range f.out.rows {
		for k := r.lo; k < r.hi; k++ {
			v := f.out.ts[k]
			if i, ok := rev.search(v, NodeID(u)); !ok {
				return fmt.Errorf("edge (%d,%d) has no other half", u, v)
			} else if rev.ws[i] != f.out.ws[k] {
				return fmt.Errorf("weight mismatch on the halves of (%d,%d)", u, v)
			}
		}
	}
	return nil
}
