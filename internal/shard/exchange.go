package shard

import (
	"fmt"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
	"incgraph/internal/serve"
)

// This file is the cross-shard query algebra: how per-shard maintained
// views become one global answer. The scheme is the partitioned-fixpoint
// model of the paper's evaluation (GRAPE): each shard computes over its
// fragment, and boundary values are exchanged across cut edges until
// the exchange frontier is empty. The exchange is itself incremental —
// it resumes from what crossed a cut instead of recomputing.
//
//   - SSSP: a shard's maintained view is the exact distance vector over
//     its fragment — an upper bound on the global distance, and the
//     length of a real path wherever finite. The router min-combines the
//     views into dist and then ships only the frontier: a pair
//     (v, dist[v]) is sent when a shard other than v's owner produced
//     the value, to the shards that store an edge out of v and hold a
//     larger value (known[i], starting as the shard's view) — the owner
//     alone on a directed graph, every other shard on an undirected one,
//     where the far endpoint's owner stores the edge too and can relax
//     it a sweep earlier. The shard relaxes from those seeds alone, on
//     top of its published view, and answers with the pairs its fragment
//     edges improved (seedRelaxer.relax); the router folds them into
//     dist and routes them on by the same rule. Shards take turns in
//     slot order, each seeing what the previous one produced (evaluating
//     them concurrently was measured to need 8 evals where this needs
//     5). A shard with an empty frontier gets no request, and the
//     exchange ends when every frontier is empty: there is no
//     verification round.
//
//     The result is the single-process answer. Every value is the
//     length of a real source path, and at the end every edge (v, w) is
//     relaxed: v's owner stores every edge out of v (OwnsEdge) and holds
//     dist[v] — from its view (a fragment fixpoint), from an eval that
//     produced it (whose Dijkstra went on across v's edges), or as a
//     seed (likewise) — and where that relaxation reported nothing for
//     w, the view or a seed was already as small, and dist is below
//     both. It is also why a value its owner produced is sent to nobody:
//     a shard that stores an edge out of v shares it with the owner.
//
//     The shard keeps no state between evals, and needs none. Let D0 be
//     its view and S the seeds of one eval; the router needs min(dist,
//     paths leaving S along fragment edges). The shard computes
//     closure(D0 ∧ S) and reports what fell below D0 ∧ S. A path from S
//     is cut short only where D0 is already as small, D0 is its own
//     closure, and dist has been below D0 since the first combine; the
//     seeds of earlier evals are missing from D0, but their closures
//     were reported then and are in dist too. So min(dist,
//     closure(D0 ∧ S)) = min(dist, paths-from-S): forgetting can make a
//     shard report a pair dist already beats (the router drops it),
//     never miss one.
//
//     What a query pays beyond the relaxations is the hops: a view fetch
//     per shard and a round trip per eval, one after another. Both ends
//     of both read and write their bodies by hand (wire.go: Client.View,
//     Client.Eval, the eval handler) — the same JSON, byte for byte, that
//     encoding/json wrote and read there, at a tenth of its cost; the
//     wire, and EvalProto with it, did not change.
//
//   - CC: a shard's maintained labels already encode "connected within
//     my fragment" (including across its cut edges, which it stores).
//     Global components are the transitive closure of the per-shard
//     relations, which a union–find over (v, label_s(v)) pairs computes
//     in one pass — the boundary-label union round, with the iteration
//     collapsed: union–find *is* iterate-until-the-frontier-is-empty,
//     memoized by path compression.

// ExchangeStats is what one SSSP exchange cost.
type ExchangeStats struct {
	// Rounds counts sweeps over the shards in which at least one shard
	// had a frontier; Evals the shard evaluations those sweeps made.
	Rounds, Evals int
	// PairsOut and PairsIn count the (vertex, distance) pairs sent to
	// shards as seeds and received back as improvements.
	PairsOut, PairsIn int
	// Converged reports that the exchange ended on an empty frontier
	// with every shard still at its gathered epoch: the answer is the
	// fixpoint over one cut of the stream. It is false when a shard was
	// seen at another epoch (a concurrent writer) or the sweep cap was
	// hit; the answer then mixes stream positions.
	Converged bool
}

// SSSPExchange assembles the global distance vector from per-shard
// local views by frontier-only boundary exchange (see the file
// comment). views[i] is shard i's maintained distance vector over all n
// vertices, nil when the shard is missing; the exchange uses it as
// known[i] and overwrites it. epochs[i] is the epoch views[i] was
// gathered at. eval sends shard i its frontier (a buffer reused by the
// next call) and returns the pairs its fragment improved plus the epoch
// it evaluated at. An epoch other
// than epochs[i] is recorded there, the sweep in progress is finished
// and the exchange stops unconverged: under a concurrent writer every
// round would see fresh improvements and the loop would chase the
// stream. A shard whose eval fails is left out of the rest of the
// exchange, like a missing one; nobody relaxes the edges only it
// stores, so the result is a sound upper bound (the caller stamps it
// degraded), not the fixpoint. With one shard, or when no finite value
// crosses a cut, no eval is made at all.
func SSSPExchange(part Partitioner, directed bool, n int, views [][]int64, epochs EpochVector,
	eval func(i int, seeds [][2]int64) (improved [][2]int64, epoch uint64, err error)) ([]int64, ExchangeStats) {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	for _, v := range views {
		minCombine(dist, v)
	}
	// pending[i] lists vertices whose dist may be below known[i]; the
	// comparison when seeds are built drops duplicates and shards that
	// hold the value already.
	pending := make([][]int32, len(views))
	// route queues v, whose dist shard from just lowered (-1: a view
	// did), for the shards that store an edge out of v the value has not
	// been relaxed across yet.
	route := func(v int32, from int) {
		switch o := part.Owner(graph.NodeID(v)); {
		case o == from:
			// v's owner stores every edge out of v and relaxed them all in
			// the eval (or the fixpoint view) that produced the value.
		case directed:
			if views[o] != nil {
				pending[o] = append(pending[o], v)
			}
		default:
			for i := range views {
				if i != from && views[i] != nil {
					pending[i] = append(pending[i], v)
				}
			}
		}
	}
	for v, d := range dist {
		o := part.Owner(graph.NodeID(v))
		if d < graph.Infinity && (views[o] == nil || d < views[o][v]) {
			route(int32(v), -1)
		}
	}
	var st ExchangeStats
	var seeds [][2]int64
	moved := false
	// A sweep settles at least the next vertex of every shortest path,
	// so a quiescent exchange needs fewer than n of them; the cap is a
	// backstop that cannot cut a legitimate exchange short.
	for st.Rounds < n && !moved {
		ran := false
		for i, known := range views {
			seeds = seeds[:0]
			for _, v := range pending[i] {
				if dist[v] < known[v] {
					known[v] = dist[v]
					seeds = append(seeds, [2]int64{int64(v), dist[v]})
				}
			}
			pending[i] = pending[i][:0]
			if len(seeds) == 0 {
				continue
			}
			ran = true
			st.Evals++
			st.PairsOut += len(seeds)
			improved, epoch, err := eval(i, seeds)
			if err != nil {
				views[i], pending[i] = nil, nil
				continue
			}
			if epoch != epochs[i] {
				epochs[i], moved = epoch, true
			}
			st.PairsIn += len(improved)
			for _, p := range improved {
				v, d := p[0], p[1]
				if v < 0 || v >= int64(n) || d < 0 || d >= dist[v] {
					continue
				}
				dist[v], known[v] = d, d
				route(int32(v), i)
			}
		}
		if !ran {
			st.Converged = true
			return dist, st
		}
		st.Rounds++
	}
	return dist, st
}

// minCombine folds src into dst component-wise.
func minCombine(dst, src []int64) {
	for i := range dst {
		if i < len(src) && src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// seedRelaxer is the shard side of an SSSP eval: a Dijkstra that starts
// from the seeds alone and reads every other distance from the shard's
// published view, so an eval costs O(vertices improved × degree), not
// O(|V|). The scratch is epoch-marked (the fixpoint.ScopeArena idiom)
// and reused: after warm-up an eval allocates only its result. It is
// used only from its service's apply loop, which serializes it.
type seedRelaxer struct {
	base    serve.Paged[int64] // the published view this eval relaxes on top of
	touched fixpoint.VarSet    // vertices this eval lowered below base
	val     []int64            // their current value
	told    []int64            // the value the router already holds for them
	order   []int32            // touched vertices, first-touch order
	heap    *pq.Heap
}

func (r *seedRelaxer) dist(v int32) int64 {
	if r.touched.Has(fixpoint.Var(v)) {
		return r.val[v]
	}
	return r.base.At(int(v))
}

// lower records d as v's value; told is what the router knows of v: the
// seed it sent, or Infinity when a fragment edge found v.
func (r *seedRelaxer) lower(v int32, d, told int64) {
	if r.touched.Add(fixpoint.Var(v)) {
		r.order = append(r.order, v)
		r.told[v] = told
	} else if told < r.told[v] {
		r.told[v] = told
	}
	r.val[v] = d
	r.heap.AddOrAdjust(v)
}

// relax runs one eval over fragment g, reading its store's Flat (the eval
// is a repair, not a check: graph/store.go): base is the shard's published
// distance view (not modified), seeds the router's frontier. It returns
// the pairs whose value a fragment edge lowered below both base and the
// seeds — what the router does not know yet. Seeds out of range,
// negative or not finite are an errBadEval (the handler's 400);
// duplicates keep the smaller value; a seed no better than base is a
// no-op.
func (r *seedRelaxer) relax(g *graph.Graph, base serve.Paged[int64], seeds [][2]int64) ([][2]int64, error) {
	n := base.Len()
	if g.NumNodes() != n {
		return nil, fmt.Errorf("view has %d nodes, graph %d", n, g.NumNodes())
	}
	for _, p := range seeds {
		if v, d := p[0], p[1]; v < 0 || v >= int64(n) {
			return nil, fmt.Errorf("%w: seed vertex %d out of range [0,%d)", errBadEval, v, n)
		} else if d < 0 || d >= graph.Infinity {
			return nil, fmt.Errorf("%w: seed value %d for vertex %d is not a finite distance", errBadEval, d, v)
		}
	}
	r.base = base
	r.touched.Begin(n)
	r.order = r.order[:0]
	if len(r.val) < n {
		r.val = make([]int64, n)
		r.told = make([]int64, n)
		r.heap = pq.New(n, func(a, b int32) bool { return r.val[a] < r.val[b] })
	}
	for _, p := range seeds {
		if v, d := int32(p[0]), p[1]; d < r.dist(v) {
			r.lower(v, d, d)
		}
	}
	f := g.Flat()
	for r.heap.Len() > 0 {
		u, _ := r.heap.Pop()
		du := r.val[u]
		ts, ws, _, _ := f.OutSpans(graph.NodeID(u))
		for k, v := range ts {
			if nd := du + ws[k]; nd < r.dist(int32(v)) {
				r.lower(int32(v), nd, graph.Infinity)
			}
		}
	}
	r.base = serve.Paged[int64]{}
	improved := make([][2]int64, 0, len(r.order))
	for _, v := range r.order {
		if r.val[v] < r.told[v] {
			improved = append(improved, [2]int64{int64(v), r.val[v]})
		}
	}
	return improved, nil
}

// CCExchange assembles global component labels from per-shard label
// vectors: a union–find over the pairs (v, label_s(v)) for every shard
// s, then each vertex is labeled with the minimum vertex id of its
// global class — the same labeling CCfp computes on the unsharded
// graph. Fragment-internal and cut edges alike are already folded into
// the shard labels (every edge is stored by at least one shard), so one
// union pass is the entire exchange.
func CCExchange(n int, views [][]int64) []int64 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Union by smaller id: the root is then the class minimum,
			// which is exactly the label we must emit.
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for _, labels := range views {
		for v := 0; v < n && v < len(labels); v++ {
			if l := labels[v]; l >= 0 && l < int64(n) {
				union(int32(v), int32(l))
			}
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		out[v] = int64(find(int32(v)))
	}
	return out
}
