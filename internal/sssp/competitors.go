package sssp

import (
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// RR is the Ramalingam–Reps dynamic SSSP algorithm for unit updates [39],
// the competitor of the paper's Exp-1. It maintains only the distance
// vector. Insertions run a bounded relaxation; deletions identify the
// affected region (nodes all of whose tight in-edges lead into the
// region), reset it, and re-run Dijkstra from its boundary.
type RR struct {
	g    *graph.Graph
	src  graph.NodeID
	dist []int64
}

// NewRR computes the initial distances and returns the algorithm.
func NewRR(g *graph.Graph, src graph.NodeID) *RR {
	return &RR{g: g, src: src, dist: Dijkstra(g, src)}
}

// Dist returns the current distance vector.
func (r *RR) Dist() []int64 { return r.dist }

// Graph returns the maintained graph.
func (r *RR) Graph() *graph.Graph { return r.g }

// Apply processes a batch as a sequence of unit updates, RR's native mode.
func (r *RR) Apply(b graph.Batch) int {
	for _, u := range b {
		r.applyUnit(u)
	}
	return 0
}

func (r *RR) applyUnit(u graph.Update) {
	switch u.Kind {
	case graph.InsertEdge:
		if !r.g.InsertEdge(u.From, u.To, u.W) {
			return
		}
		r.relaxFrom(u.From, u.To, u.W)
		if !r.g.Directed() {
			r.relaxFrom(u.To, u.From, u.W)
		}
	case graph.DeleteEdge:
		w, ok := r.g.RemoveEdge(u.From, u.To)
		if !ok {
			return
		}
		r.deleteRepair(u.From, u.To, w)
		if !r.g.Directed() {
			r.deleteRepair(u.To, u.From, w)
		}
	}
}

// relaxFrom propagates a potential improvement along the new edge (a, b).
func (r *RR) relaxFrom(a, b graph.NodeID, w int64) {
	if r.dist[a] >= Infinity || r.dist[a]+w >= r.dist[b] {
		return
	}
	r.dist[b] = r.dist[a] + w
	que := pq.New(r.g.NumNodes(), func(x, y int32) bool { return r.dist[x] < r.dist[y] })
	que.AddOrAdjust(int32(b))
	for {
		x, ok := que.Pop()
		if !ok {
			return
		}
		v := graph.NodeID(x)
		ts, ws, _, _ := r.g.Flat().OutSpans(v)
		for k, to := range ts {
			if alt := r.dist[v] + ws[k]; alt < r.dist[to] {
				r.dist[to] = alt
				que.AddOrAdjust(int32(to))
			}
		}
	}
}

// deleteRepair restores distances after removing edge (a, b) of weight w.
func (r *RR) deleteRepair(a, b graph.NodeID, w int64) {
	if r.dist[a] >= Infinity || r.dist[a]+w != r.dist[b] {
		return // the removed edge was not tight: distances unaffected
	}
	if r.best(b) == r.dist[b] {
		return // b still has a tight in-edge
	}
	// Phase 1: collect the affected region. A node joins when all its
	// tight in-edges come from nodes already in the region.
	affected := map[graph.NodeID]bool{b: true}
	queue := []graph.NodeID{b}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		ts, ws, _, _ := r.g.Flat().OutSpans(x)
		for k, y := range ts {
			if affected[y] || r.dist[y] >= Infinity || r.dist[x]+ws[k] != r.dist[y] {
				continue
			}
			if r.hasUnaffectedTightEdge(y, affected) {
				continue
			}
			affected[y] = true
			queue = append(queue, y)
		}
	}
	// Phase 2: reset the region and run Dijkstra from its boundary.
	for x := range affected {
		r.dist[x] = Infinity
	}
	que := pq.New(r.g.NumNodes(), func(x, y int32) bool { return r.dist[x] < r.dist[y] })
	for x := range affected {
		if d := r.best(x); d < r.dist[x] {
			r.dist[x] = d
			que.AddOrAdjust(int32(x))
		}
	}
	for {
		xi, ok := que.Pop()
		if !ok {
			return
		}
		v := graph.NodeID(xi)
		ts, ws, _, _ := r.g.Flat().OutSpans(v)
		for k, to := range ts {
			if alt := r.dist[v] + ws[k]; alt < r.dist[to] {
				r.dist[to] = alt
				que.AddOrAdjust(int32(to))
			}
		}
	}
}

// best returns the minimum in-neighbor distance plus weight for v.
func (r *RR) best(v graph.NodeID) int64 {
	if v == r.src {
		return 0
	}
	best := Infinity
	ts, ws, _, _ := r.g.Flat().InSpans(v)
	for k, u := range ts {
		if d := r.dist[u]; d < Infinity && d+ws[k] < best {
			best = d + ws[k]
		}
	}
	return best
}

func (r *RR) hasUnaffectedTightEdge(y graph.NodeID, affected map[graph.NodeID]bool) bool {
	if y == r.src {
		return true
	}
	ts, ws, _, _ := r.g.Flat().InSpans(y)
	for k, u := range ts {
		if !affected[u] && r.dist[u] < Infinity && r.dist[u]+ws[k] == r.dist[y] {
			return true
		}
	}
	return false
}

// DynDij is the batch-update dynamic SSSP competitor in the style of Chan
// and Yang [17]: it maintains a shortest-path tree, invalidates the
// subtrees hanging below deleted or worsened tree edges, and re-runs
// Dijkstra from the valid boundary plus the inserted edges.
type DynDij struct {
	g      *graph.Graph
	round  uint64 // the last round of g this algorithm took
	src    graph.NodeID
	dist   []int64
	parent []graph.NodeID
}

// NewDynDij computes the initial tree and returns the algorithm.
func NewDynDij(g *graph.Graph, src graph.NodeID) *DynDij {
	d := &DynDij{g: g, round: g.Round(), src: src}
	d.rebuild()
	return d
}

func (d *DynDij) rebuild() {
	d.dist = Dijkstra(d.g, d.src)
	d.parent = make([]graph.NodeID, d.g.NumNodes())
	for v := range d.parent {
		d.parent[v] = -1
	}
	for v := 0; v < d.g.NumNodes(); v++ {
		if d.dist[v] >= Infinity || graph.NodeID(v) == d.src {
			continue
		}
		ts, ws, _, _ := d.g.Flat().InSpans(graph.NodeID(v))
		for k, u := range ts {
			if d.dist[u] < Infinity && d.dist[u]+ws[k] == d.dist[v] {
				d.parent[v] = u
				break
			}
		}
	}
}

// Dist returns the current distance vector.
func (d *DynDij) Dist() []int64 { return d.dist }

// Graph returns the maintained graph.
func (d *DynDij) Graph() *graph.Graph { return d.g }

// Apply processes the whole batch: net it and advance the graph by it
// (G ⊕ ΔG), invalidate affected subtrees, then one Dijkstra pass over the
// invalidated region and insertion seeds.
func (d *DynDij) Apply(b graph.Batch) int {
	d.g.Advance(b.Net(d.g.Directed()))
	return d.Repair()
}

// Repair processes the graph's newest round, which must be net: the
// insertion seeds are relaxed without checking the edge survived.
func (d *DynDij) Repair() int {
	applied := d.g.Take(&d.round)
	if len(applied) == 0 {
		return 0
	}
	var cuts []graph.NodeID
	var seeds []graph.Update
	for _, u := range applied {
		switch u.Kind {
		case graph.DeleteEdge:
			if d.parent[u.To] == u.From {
				cuts = append(cuts, u.To)
			}
			if !d.g.Directed() && d.parent[u.From] == u.To {
				cuts = append(cuts, u.From)
			}
		case graph.InsertEdge:
			seeds = append(seeds, u)
		}
	}
	affected := d.invalidate(cuts)
	que := pq.New(d.g.NumNodes(), func(x, y int32) bool { return d.dist[x] < d.dist[y] })
	for _, v := range affected {
		if w, p := d.bestWithParent(v); w < Infinity {
			d.dist[v], d.parent[v] = w, p
			que.AddOrAdjust(int32(v))
		}
	}
	relax := func(a, b graph.NodeID, w int64) {
		if d.dist[a] < Infinity && d.dist[a]+w < d.dist[b] {
			d.dist[b] = d.dist[a] + w
			d.parent[b] = a
			que.AddOrAdjust(int32(b))
		}
	}
	for _, u := range seeds {
		relax(u.From, u.To, u.W)
		if !d.g.Directed() {
			relax(u.To, u.From, u.W)
		}
	}
	for {
		xi, ok := que.Pop()
		if !ok {
			break
		}
		v := graph.NodeID(xi)
		ts, ws, _, _ := d.g.Flat().OutSpans(v)
		for k, to := range ts {
			relax(v, to, ws[k])
		}
	}
	return len(affected)
}

// invalidate resets the subtrees rooted at cuts and returns the reset
// nodes.
func (d *DynDij) invalidate(cuts []graph.NodeID) []graph.NodeID {
	if len(cuts) == 0 {
		return nil
	}
	children := make([][]graph.NodeID, d.g.NumNodes())
	for v := 0; v < d.g.NumNodes(); v++ {
		if p := d.parent[v]; p >= 0 {
			children[p] = append(children[p], graph.NodeID(v))
		}
	}
	var affected []graph.NodeID
	var stack []graph.NodeID
	for _, c := range cuts {
		if d.dist[c] < Infinity {
			stack = append(stack, c)
		}
	}
	seen := map[graph.NodeID]bool{}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		d.dist[v] = Infinity
		d.parent[v] = -1
		affected = append(affected, v)
		stack = append(stack, children[v]...)
	}
	return affected
}

// bestWithParent returns v's best distance via in-neighbors with finite
// distance, and the achieving parent.
func (d *DynDij) bestWithParent(v graph.NodeID) (int64, graph.NodeID) {
	if v == d.src {
		return 0, -1
	}
	best, parent := Infinity, graph.NodeID(-1)
	ts, ws, _, _ := d.g.Flat().InSpans(v)
	for k, u := range ts {
		if dd := d.dist[u]; dd < Infinity && dd+ws[k] < best {
			best, parent = dd+ws[k], u
		}
	}
	return best, parent
}
