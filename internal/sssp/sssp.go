// Package sssp implements single-source shortest paths: the batch fixpoint
// algorithm (Dijkstra, Fig. 1 of the paper), the deduced incremental
// algorithm IncSSSP (Fig. 5), and the dynamic competitors RR (Ramalingam–Reps) and DynDij (Chan–Yang style) used as
// baselines in the paper's experiments.
package sssp

import (
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// Infinity marks unreachable nodes in distance vectors.
const Infinity = graph.Infinity

// Dijkstra computes shortest distances from src, the paper's batch
// algorithm A for SSSP: a label-setting run over an indexed monotone radix
// heap (pq.Radix) of nodes by distance. A node is queued once, and moved
// whenever its distance falls. The heap's keys are sound because the graph
// refuses a weight outside [0, Infinity): every distance popped is below
// Infinity, every push at or above it and below 2·Infinity.
func Dijkstra(g *graph.Graph, src graph.NodeID) []int64 {
	dist := make([]int64, g.NumNodes())
	dijkstra(g, src, dist)
	return dist
}

// dijkstra is Dijkstra into dist, which has a slot per node of g.
func dijkstra(g *graph.Graph, src graph.NodeID, dist []int64) {
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	que := pq.NewRadix(len(dist))
	que.Push(0, int32(src))
	for {
		d, x, ok := que.Pop()
		if !ok {
			return
		}
		for _, e := range g.Out(graph.NodeID(x)) {
			if alt := d + e.W; alt < dist[e.To] {
				dist[e.To] = alt
				que.Push(alt, int32(e.To))
			}
		}
	}
}

// BellmanFord is the O(|V|·|E|) reference used by tests to validate every
// other implementation in this package.
func BellmanFord(g *graph.Graph, src graph.NodeID) []int64 {
	n := g.NumNodes()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] >= Infinity {
				continue
			}
			for _, e := range g.Out(graph.NodeID(u)) {
				if alt := dist[u] + e.W; alt < dist[e.To] {
					dist[e.To] = alt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Instance is the SSSP instantiation of the fixpoint model Φ: one status
// variable per node holding its distance from the source, updated by
// f_xv = min over in-neighbors u of (x_u + w(u, v)). It is contracting and
// monotonic under the natural order on distances (C2).
type Instance struct {
	G   *graph.Graph
	Src graph.NodeID
}

// NumVars returns one variable per node.
func (s *Instance) NumVars() int { return s.G.NumNodes() }

// Bottom returns the initial distance: 0 at the source, ∞ elsewhere.
func (s *Instance) Bottom(x fixpoint.Var) int64 {
	if graph.NodeID(x) == s.Src {
		return 0
	}
	return Infinity
}

// Less orders distances: smaller is closer to final.
func (s *Instance) Less(a, b int64) bool { return a < b }

// Equal reports distance equality.
func (s *Instance) Equal(a, b int64) bool { return a == b }

// Inputs yields the in-neighbors of x, the input set Y_x.
func (s *Instance) Inputs(x fixpoint.Var, yield func(fixpoint.Var)) {
	for _, e := range s.G.In(graph.NodeID(x)) {
		yield(fixpoint.Var(e.To))
	}
}

// Dependents yields the out-neighbors of x.
func (s *Instance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) {
	for _, e := range s.G.Out(graph.NodeID(x)) {
		yield(fixpoint.Var(e.To))
	}
}

// Update evaluates f_x: the minimum of in-neighbor distance plus edge
// weight.
func (s *Instance) Update(x fixpoint.Var, get func(fixpoint.Var) int64) int64 {
	v := graph.NodeID(x)
	if v == s.Src {
		return 0
	}
	best := Infinity
	for _, e := range s.G.In(v) {
		if d := get(fixpoint.Var(e.To)); d < Infinity && d+e.W < best {
			best = d + e.W
		}
	}
	return best
}

// Seeds yields the source, the only variable whose statement may be false
// initially.
func (s *Instance) Seeds(yield func(fixpoint.Var)) { yield(fixpoint.Var(s.Src)) }

// RelaxOut emits Dijkstra relaxation candidates x_v + w(v, z) to v's
// out-neighbors, the meet-form fast path of the engine.
func (s *Instance) RelaxOut(x fixpoint.Var, xv int64, emit func(fixpoint.Var, int64)) {
	if xv >= Infinity {
		return
	}
	for _, e := range s.G.Out(graph.NodeID(x)) {
		emit(fixpoint.Var(e.To), xv+e.W)
	}
}

// IncEngine is the incremental SSSP algorithm expressed through the
// generic fixpoint engine; the tuned, array-based Inc in incsssp.go is
// the paper's Fig. 5 and is what the benchmarks exercise. Both compute
// the same distances (tests cross-check them).
type IncEngine struct {
	g     *graph.Graph
	round uint64 // the last round of g this algorithm took
	inst  *Instance
	eng   *fixpoint.Engine[int64]
	arena fixpoint.ScopeArena
}

// NewIncEngine computes the initial fixpoint over g and returns the
// engine-based incremental algorithm positioned at it.
func NewIncEngine(g *graph.Graph, src graph.NodeID) *IncEngine {
	inst := &Instance{G: g, Src: src}
	eng := fixpoint.New[int64](inst, fixpoint.PriorityOrder)
	eng.Run()
	return &IncEngine{g: g, round: g.Round(), inst: inst, eng: eng}
}

// Graph returns the graph the algorithm maintains.
func (i *IncEngine) Graph() *graph.Graph { return i.g }

// Dist returns the current distance vector, aliased to internal state.
func (i *IncEngine) Dist() []int64 { return i.eng.State().Val }

// Stats exposes the engine's inspection counters.
func (i *IncEngine) Stats() fixpoint.Stats { return i.eng.State().Stats }

// State exposes the engine's status — distances, the timestamps that
// order them (<_C) and the counters — aliased to internal state.
func (i *IncEngine) State() *fixpoint.State[int64] { return i.eng.State() }

// Apply computes G ⊕ ΔG for any sequence of unit updates b and
// incrementally updates the distances, running the initial scope function
// h and resuming the batch step function. It returns |H⁰|, the size of
// the initial scope found by h.
func (i *IncEngine) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair runs the incremental algorithm over the graph's newest round.
// Re-propagating from an insert's tail reads the graph as it is now, so
// an insert the batch deletes again relaxes nothing.
//
// Per-update anchor analysis (§4) keeps the scope tight: an inserted edge
// can only improve its head, so the head skips h's revision queue; a
// deleted edge matters only if it was tight (on a shortest path), i.e. in
// the head's anchor set — other deletions touch nothing at all.
func (i *IncEngine) Repair() int {
	applied := i.g.Take(&i.round)
	dist := i.eng.State().Val
	a := &i.arena
	a.Begin(i.g.NumNodes())
	tight := func(u, v graph.NodeID, w int64) bool {
		return dist[u] < Infinity && dist[u]+w == dist[v]
	}
	for _, up := range applied {
		switch up.Kind {
		case graph.InsertEdge:
			// The tail's contributions strengthened: re-propagate from it.
			a.Seed(fixpoint.Var(up.From))
			if !i.g.Directed() {
				a.Seed(fixpoint.Var(up.To))
			}
		case graph.DeleteEdge:
			if tight(up.From, up.To, up.W) {
				a.Touch(fixpoint.Var(up.To), true)
			}
			if !i.g.Directed() && tight(up.To, up.From, up.W) {
				a.Touch(fixpoint.Var(up.From), true)
			}
		}
	}
	return len(i.eng.IncrementalRunDelta(a.Touched(), a.Seeds()))
}
