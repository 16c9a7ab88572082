// Package dfs implements depth-first search (§5.2 of the paper): the
// batch fixpoint algorithm DFS_fp producing the interval status variables
// x_v = [v.first, v.last], the deduced incremental algorithm IncDFS, and
// the DynDFS competitor (Yang et al. style validity-preserving dynamic
// DFS).
//
// As in the paper, a virtual root connected to every node anchors the
// traversal, so every node carries an interval. Determinism (needed for
// the correctness equation Q(G ⊕ ΔG) = Q(G) ⊕ ΔO) comes from a canonical
// neighbor order: smaller node ids first, with the virtual root
// enumerating 0..n-1. Under that rule the DFS tree, preorder and
// postorder are unique functions of the graph.
//
// IncDFS exploits the anchor structure of DFS_fp: the anchor set of x_v is
// its parent, and <_C is the order of first-timestamps. An edge update
// with source u can first influence the traversal at time first[u], so
// every event before t* = min over changed sources of first[u] is reused
// verbatim and the traversal is resumed from the stack state at t*. The
// recomputed suffix is exactly the affected area AFF of DFS_fp — large
// for DFS, as the paper observes (crossover near |ΔG| = 4%|G|).
package dfs

import (
	"cmp"
	"fmt"
	"slices"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Tree is the output of a DFS: for every node its preorder/postorder
// interval and its tree parent (-1 for children of the virtual root).
// Timestamps are 1-based; a pair of events is spent per node.
type Tree struct {
	First, Last []int32
	Parent      []graph.NodeID
}

// clone deep-copies the tree.
func (t *Tree) clone() *Tree {
	return &Tree{
		First:  append([]int32(nil), t.First...),
		Last:   append([]int32(nil), t.Last...),
		Parent: append([]graph.NodeID(nil), t.Parent...),
	}
}

// Equal reports whether two trees are identical.
func (t *Tree) Equal(o *Tree) bool {
	if len(t.First) != len(o.First) {
		return false
	}
	for i := range t.First {
		if t.First[i] != o.First[i] || t.Last[i] != o.Last[i] || t.Parent[i] != o.Parent[i] {
			return false
		}
	}
	return true
}

// IsValid verifies that the tree is a legal DFS forest of g: intervals
// properly nested, parents consistent with tree edges, and the DFS
// invariant that no edge jumps forward across finished subtrees
// (last[u] < first[v] for an edge (u, v) is the forbidden forward-cross
// of §5.2).
func (t *Tree) IsValid(g *graph.Graph) bool {
	n := g.NumNodes()
	if len(t.First) != n {
		return false
	}
	for v := 0; v < n; v++ {
		if t.First[v] <= 0 || t.Last[v] <= t.First[v] {
			return false
		}
		if p := t.Parent[v]; p >= 0 {
			if !g.HasEdge(p, graph.NodeID(v)) {
				return false
			}
			// Child interval nested in parent interval.
			if !(t.First[p] < t.First[v] && t.Last[v] < t.Last[p]) {
				return false
			}
		}
	}
	ok := true
	for u := 0; u < n && ok; u++ {
		ts, _, _, _ := g.Flat().OutSpans(graph.NodeID(u))
		for _, to := range ts {
			if t.Last[u] < t.First[to] {
				ok = false
				break
			}
		}
	}
	return ok
}

// Run computes the canonical DFS of g, the batch algorithm DFS_fp, over
// g's sorted rows.
func Run(g *graph.Graph) *Tree { return run(g.Flat(), g.NumNodes()) }

// run is a full traversal of the n nodes whose rows f holds.
func run(f *graph.Flat, n int) *Tree {
	t := &Tree{First: make([]int32, n), Last: make([]int32, n), Parent: make([]graph.NodeID, n)}
	replayFrom(f, n, t, 1, new(replay))
	return t
}

// frame is one open node on the DFS stack: its row of the Flat, whose
// ascending order is the canonical neighbor enumeration of §5.2, and the
// cursor i over it. The row dies with the next Stage; by then every frame
// has popped.
type frame struct {
	v  graph.NodeID
	i  int32
	ts []graph.NodeID
}

// replay is the scratch of replayFrom, and what a call leaves behind for
// the ledger. A maintainer keeps one, so that a replay allocates only
// while the scratch is still growing to the graph's size; a batch run
// passes a fresh one.
type replay struct {
	open  []graph.NodeID // the stack at tstar, bottom first
	stack []frame
	// prior lists every node the call reopened or reset with the triple it
	// had before — each node once — and scanned counts the row entries
	// enumerated.
	prior   []priorNode
	scanned int64
}

type priorNode struct {
	v           graph.NodeID
	first, last int32
	parent      graph.NodeID
}

func (sc *replay) push(f *graph.Flat, v graph.NodeID) {
	ts, _, _, _ := f.OutSpans(v)
	sc.scanned += int64(len(ts))
	sc.stack = append(sc.stack, frame{v: v, ts: ts})
}

// run continues the traversal until the stack is empty and returns the
// advanced clock.
func (sc *replay) run(f *graph.Flat, t *Tree, clock int32) int32 {
	for len(sc.stack) > 0 {
		fr := &sc.stack[len(sc.stack)-1]
		ts, i := fr.ts, int(fr.i)
		for i < len(ts) && t.First[ts[i]] != 0 {
			i++ // visited
		}
		if i < len(ts) {
			w := ts[i]
			fr.i = int32(i + 1)
			clock++
			t.First[w] = clock
			t.Parent[w] = fr.v
			sc.push(f, w)
			continue
		}
		clock++
		t.Last[fr.v] = clock
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
	return clock
}

// replayFrom discards every event at time >= tstar and re-runs the
// traversal of the n nodes whose rows f holds from the stack state at
// tstar. replayFrom(f, n, t, 1, sc) is a full batch run. It returns the
// number of nodes whose intervals were (re)computed, the affected-area
// measure.
func replayFrom(f *graph.Flat, n int, t *Tree, tstar int32, sc *replay) int {
	sc.open, sc.stack, sc.prior, sc.scanned = sc.open[:0], sc.stack[:0], sc.prior[:0], 0
	// Classify nodes: closed prefix (kept), open stack (first kept, last
	// recomputed), affected suffix (reset).
	affected := 0
	for v := 0; v < n; v++ {
		switch {
		case t.First[v] > 0 && t.First[v] < tstar && t.Last[v] >= tstar:
			sc.prior = append(sc.prior, priorNode{graph.NodeID(v), t.First[v], t.Last[v], t.Parent[v]})
			sc.open = append(sc.open, graph.NodeID(v))
			t.Last[v] = 0
		case t.First[v] >= tstar || t.First[v] == 0:
			sc.prior = append(sc.prior, priorNode{graph.NodeID(v), t.First[v], t.Last[v], t.Parent[v]})
			t.First[v], t.Last[v], t.Parent[v] = 0, 0, -1
			affected++
		}
	}
	slices.SortFunc(sc.open, func(a, b graph.NodeID) int { return cmp.Compare(t.First[a], t.First[b]) })
	for _, w := range sc.open {
		sc.push(f, w)
	}
	clock := sc.run(f, t, tstar-1)
	// Virtual root enumerates remaining nodes in id order.
	for s := 0; s < n; s++ {
		if t.First[s] == 0 {
			clock++
			t.First[s] = clock
			t.Parent[s] = -1
			sc.push(f, graph.NodeID(s))
			clock = sc.run(f, t, clock)
		}
	}
	return affected
}

// Inc is the deduced incremental algorithm IncDFS. It is deducible from
// DFS_fp: the parent anchors and the order <_C are read off the interval
// status variables, no timestamps beyond them are needed.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Tree aliases state that Apply mutates. Concurrent serving goes through
// internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g       *graph.Graph
	flat    *graph.Flat
	round   uint64 // the last round of g this maintainer took
	tree    *Tree
	sc      replay
	written []int32
	stats   fixpoint.Stats
}

// NewInc runs the batch DFS and returns the incremental algorithm.
func NewInc(g *graph.Graph) *Inc {
	i := Blank(g)
	i.tree = run(i.flat, g.NumNodes())
	return i
}

// Blank returns the incremental algorithm over g before the batch run,
// with an empty forest: the maintainer a checkpointed forest is restored
// into (RestoreState) or Recompute fills, before Apply.
func Blank(g *graph.Graph) *Inc {
	return &Inc{g: g, flat: g.Flat(), round: g.Round(), tree: &Tree{}}
}

// Recompute reruns the batch DFS over the graph's Flat at its round,
// leaving what NewInc builds.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	i.tree = run(i.flat, i.g.NumNodes())
	i.written = i.written[:0]
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Tree returns the maintained DFS tree (aliased, do not mutate).
func (i *Inc) Tree() *Tree { return i.tree }

// Written lists the nodes whose (first, last, parent) triple the last
// Repair (or Apply) changed, each once: a replay that reproduces a node's
// old triple does not write it. It aliases internal state, allocates
// nothing, and is valid until the next Repair.
func (i *Inc) Written() []int32 { return i.written }

// Stats exposes the work account: per Repair the ledger gains the applied
// updates (Touched), the nodes whose interval was recomputed — replayed
// whole, or reopened at the replay point to get a new last — (Aff), the
// neighbor row entries enumerated for them (AffEdges), and those of them
// whose triple came out different (Changed).
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// RestoreState overwrites the maintained tree with one exported from a
// checkpoint of the same graph. The interval variables are IncDFS's
// complete incremental state: the parent anchors and the order <_C are
// read off them directly. The slices are copied.
func (i *Inc) RestoreState(first, last []int32, parent []graph.NodeID) error {
	n := i.g.NumNodes()
	if len(first) != n || len(last) != n || len(parent) != n {
		return fmt.Errorf("dfs: restore of %d/%d/%d intervals into graph with %d nodes",
			len(first), len(last), len(parent), n)
	}
	i.tree = &Tree{
		First:  append([]int32(nil), first...),
		Last:   append([]int32(nil), last...),
		Parent: append([]graph.NodeID(nil), parent...),
	}
	return nil
}

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and repairs the DFS tree by replaying the traversal from the
// earliest affected anchor. It returns the number of recomputed intervals.
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair replays the traversal suffix for the graph's newest round.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	i.written = i.written[:0]
	if len(applied) == 0 {
		return 0
	}
	end := int32(2*len(i.tree.First) + 1)
	tstar := end
	// The traversal can diverge only strictly after the changed source's
	// visit event, so first[u]+1 is the earliest affected time.
	consider := func(u graph.NodeID) {
		if i.tree.First[u] > 0 && i.tree.First[u]+1 < tstar {
			tstar = i.tree.First[u] + 1
		}
	}
	considerAt := func(t int32) {
		if t > 0 && t < tstar {
			tstar = t
		}
	}
	for _, up := range applied {
		switch up.Kind {
		case graph.InsertEdge:
			if i.g.Directed() {
				// If the target was already visited before the source
				// even started, the canonical traversal skips the new
				// edge: nothing diverges.
				if i.tree.First[up.To] < i.tree.First[up.From] {
					continue
				}
				consider(up.From)
			} else {
				consider(up.From)
				consider(up.To)
			}
		case graph.DeleteEdge:
			// Removing a non-tree edge never changes the canonical
			// traversal: its consult always found the target visited.
			fromTree := i.tree.Parent[up.To] == up.From
			toTree := !i.g.Directed() && i.tree.Parent[up.From] == up.To
			if fromTree {
				considerAt(i.tree.First[up.To]) // divergence at the child's visit
			}
			if toTree {
				considerAt(i.tree.First[up.From])
			}
		}
	}
	affected := replayFrom(i.flat, i.g.NumNodes(), i.tree, tstar, &i.sc)
	t := i.tree
	for _, p := range i.sc.prior {
		if t.First[p.v] != p.first || t.Last[p.v] != p.last || t.Parent[p.v] != p.parent {
			i.written = append(i.written, int32(p.v))
		}
	}
	led := &i.stats.Ledger
	led.Runs++
	led.Touched += int64(len(applied))
	led.Aff += int64(affected + len(i.sc.open))
	led.AffEdges += i.sc.scanned
	led.Changed += int64(len(i.written))
	led.RecomputeEst = int64(i.g.NumNodes())
	return affected
}
