package dfs

import "incgraph/internal/graph"

// DynDFS is the fully dynamic DFS competitor in the style of Yang et al.
// (PVLDB 2019): it maintains *some* valid DFS tree (not the canonical
// one), processing unit updates one at a time. Updates that provably
// preserve validity are absorbed in O(1):
//
//   - inserting (u, v) when last[u] > first[v] creates a back, forward or
//     leftward cross edge, all of which a DFS tree tolerates;
//   - deleting a non-tree edge.
//
// Other updates replay the traversal suffix from the affected anchor and
// then re-verify the forward-cross invariant over the suffix, rebuilding
// from scratch when a previously absorbed edge has become violating. This
// makes DynDFS competitive on insertion-heavy unit streams but weak on
// batches — the shape the paper reports (IncDFS 4.4× faster at 1%
// updates). Each unit update is a round of its graph, and the replays and
// the validity scan read the graph's Flat.
type DynDFS struct {
	g     *graph.Graph
	flat  *graph.Flat
	round uint64 // the last round of g this competitor took
	tree  *Tree
}

// NewDynDFS runs the batch DFS and returns the competitor.
func NewDynDFS(g *graph.Graph) *DynDFS {
	f := g.Flat()
	return &DynDFS{g: g, flat: f, round: g.Round(), tree: run(f, g.NumNodes())}
}

// Graph returns the maintained graph.
func (d *DynDFS) Graph() *graph.Graph { return d.g }

// Tree returns the maintained DFS tree.
func (d *DynDFS) Tree() *Tree { return d.tree }

// Apply processes the batch one unit update at a time, DynDFS's native
// interface: each is a round of the graph, repaired before the next. It
// returns the total number of recomputed intervals.
func (d *DynDFS) Apply(b graph.Batch) int {
	total := 0
	for _, u := range b {
		d.g.Advance(graph.Batch{u})
		total += d.Repair()
	}
	return total
}

// Repair takes the graph's newest round and absorbs or replays its
// applied updates one at a time. It returns the number of recomputed
// intervals.
func (d *DynDFS) Repair() int {
	total := 0
	for _, up := range d.g.Take(&d.round) {
		if up.Kind == graph.InsertEdge && d.absorbable(up.From, up.To) {
			continue // an edge the tree tolerates
		}
		if up.Kind == graph.DeleteEdge && d.tree.Parent[up.To] != up.From &&
			(d.g.Directed() || d.tree.Parent[up.From] != up.To) {
			continue // deleting a non-tree edge never breaks validity
		}
		total += d.replayChecked(up)
	}
	return total
}

// absorbable reports whether the new edge (and its mirror for undirected
// graphs) is tolerated by the current tree.
func (d *DynDFS) absorbable(u, v graph.NodeID) bool {
	ok := d.tree.Last[u] > d.tree.First[v]
	if !d.g.Directed() {
		ok = ok && d.tree.Last[v] > d.tree.First[u]
	}
	return ok
}

// replayChecked replays the suffix from the update's anchor and verifies
// the invariant; on violation (an earlier absorbed edge turned into a
// forward cross) it rebuilds from scratch.
func (d *DynDFS) replayChecked(up graph.Update) int {
	tstar := int32(2*len(d.tree.First) + 1)
	consider := func(u graph.NodeID) {
		if d.tree.First[u] > 0 && d.tree.First[u]+1 < tstar {
			tstar = d.tree.First[u] + 1
		}
	}
	consider(up.From)
	if !d.g.Directed() {
		consider(up.To)
	}
	affected := replayFrom(d.flat, d.g.NumNodes(), d.tree, tstar, new(replay))
	if !d.valid() {
		d.tree = run(d.flat, d.g.NumNodes())
		return d.g.NumNodes()
	}
	return affected
}

// valid re-checks the forward-cross invariant over all edges: replaying a
// suffix can move a target's first past the last of an absorbed prefix
// edge, so the scan cannot be restricted to the suffix.
func (d *DynDFS) valid() bool {
	for v := 0; v < d.g.NumNodes(); v++ {
		ts, _, _, _ := d.flat.OutSpans(graph.NodeID(v))
		for _, w := range ts {
			if d.tree.Last[v] < d.tree.First[w] {
				return false
			}
		}
	}
	return true
}
