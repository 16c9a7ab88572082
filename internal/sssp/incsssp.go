package sssp

import (
	"fmt"
	"slices"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// Inc is the deduced incremental algorithm IncSSSP of Fig. 5, over
// Dijkstra's data structures: the distance array, and a priority queue
// keyed by distance — here indexed binary heaps (pq.Heap), whose
// decrease-key the repair's bounded scopes use, where the batch Dijkstra
// pops a radix heap with lazy deletion. IncSSSP is *deducible* — it needs
// no timestamps, because
// the order <_C is the distance order already present in the fixpoint
// (with positive weights, every anchor's distance is strictly smaller than
// its dependent's).
//
// Apply = the graph's Advance (materialize G ⊕ ΔG) + Repair:
//
//  1. the initial scope function h revises potentially infeasible
//     distances in ascending old-distance order, substituting ∞ for
//     inputs determined later (Fig. 4), seeded by the heads of deleted
//     tight edges;
//  2. the resumed step function is Dijkstra's own loop (lines 4-10 of
//     Fig. 1), seeded with the revised nodes and the tails of inserted
//     edges.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// accessors alias internal state that Apply mutates. Concurrent serving
// goes through internal/serve, which gives each maintainer one apply
// loop and publishes immutable snapshots to readers.
type Inc struct {
	g     *graph.Graph
	flat  *graph.Flat // g's sorted-span adjacency, which every Repair loop reads
	round uint64      // the last round of g this maintainer took
	src   graph.NodeID

	dist []int64
	wq   *pq.Heap // step-function queue, keyed by current distance

	hq     *pq.Heap // h's queue, keyed by old distance
	hkey   []int64
	oldVal []int64 // pre-revision distances of this round's revised nodes
	mark   []int64 // epoch marks: revised this round
	epoch  int64
	led    fixpoint.Tracker[int64] // work ledger: AFF membership, first writes

	stats  fixpoint.Stats
	tracer fixpoint.Tracer
}

// NewInc runs Dijkstra and returns the incremental algorithm positioned
// at its fixpoint.
func NewInc(g *graph.Graph, src graph.NodeID) *Inc {
	i := Blank(g, src)
	i.Recompute()
	return i
}

// Blank returns the incremental algorithm over g before any batch run,
// every distance Infinity: the maintainer a checkpointed vector is
// restored into (RestoreState) or Recompute fills, before Apply.
func Blank(g *graph.Graph, src graph.NodeID) *Inc {
	n := g.NumNodes()
	i := &Inc{g: g, flat: g.Flat(), round: g.Round(), src: src, dist: make([]int64, n)}
	for v := range i.dist {
		i.dist[v] = Infinity
	}
	i.wq = pq.New(n, func(a, b int32) bool { return i.dist[a] < i.dist[b] })
	i.hq = pq.New(n, func(a, b int32) bool { return i.hkey[a] < i.hkey[b] })
	i.hkey = make([]int64, n)
	i.oldVal = make([]int64, n)
	i.mark = make([]int64, n)
	i.led.Size(n)
	return i
}

// Recompute reruns Dijkstra in place, at the graph's round, leaving what
// NewInc builds: its written list empty.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	dijkstra(i.g, i.src, i.dist)
	i.led.Reset()
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Source returns the node distances are measured from.
func (i *Inc) Source() graph.NodeID { return i.src }

// Dist returns the current distance vector, aliased to internal state.
func (i *Inc) Dist() []int64 { return i.dist }

// Written lists the nodes whose distance the last Apply (or Repair)
// wrote, each once: a superset of the entries of Dist that changed,
// kept for the work ledger's settle sweep. It aliases internal state,
// is never nil, allocates nothing, and is valid until the next Apply.
func (i *Inc) Written() []int32 { return i.led.Written() }

// Stats exposes inspection counters and the h/resume time split.
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// RestoreState overwrites the distance vector with one exported from a
// checkpoint of the same graph. IncSSSP is deducible — the distances ARE
// its complete incremental state (the order <_C is the distance order),
// so dist is all a checkpoint needs to persist. The slice is copied.
func (i *Inc) RestoreState(dist []int64) error {
	if len(dist) != i.g.NumNodes() {
		return fmt.Errorf("sssp: restore of %d distances into graph with %d nodes", len(dist), i.g.NumNodes())
	}
	copy(i.dist, dist)
	return nil
}

// Certify checks the distances by certificate (see Certify), reading the
// graph's rows rather than the Flat view the repairs read.
func (i *Inc) Certify() error { return Certify(i.g, i.src, i.dist) }

// SetTracer installs the span hook observing Repair's h and resume
// phases (see fixpoint.Tracer). Inc is not engine-based, so it drives
// the tracer itself: BeginRun carries the staged-update count as the
// touched size, and rounds are not reported — Dijkstra's priority loop
// has no BFS-level structure. Call from the single writer goroutine.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.tracer = t }

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not, with repeats, an insert the batch deletes again, a delete and
// re-insert at a new weight — and incrementally repairs the distances,
// returning |H⁰|.
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// ledgerAff charges v's first entry into this repair's affected area:
// |AFF| grows by one and ‖AFF‖ by v's incident edges (the lengths of its
// Flat spans, so allocation-free like the tracker).
func (i *Inc) ledgerAff(v graph.NodeID) {
	if !i.led.Aff(int32(v)) {
		return
	}
	i.stats.Ledger.Aff++
	out, _, _, _ := i.flat.OutSpans(v)
	deg := int64(len(out))
	if i.g.Directed() {
		in, _, _, _ := i.flat.InSpans(v)
		deg += int64(len(in))
	}
	i.stats.Ledger.AffEdges += deg
}

// oldDist returns v's distance as of the start of this round.
func (i *Inc) oldDist(v graph.NodeID) int64 {
	if i.mark[v] == i.epoch {
		return i.oldVal[v]
	}
	return i.dist[v]
}

// Repair runs h and the resumed step function over the graph's newest round.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	i.led.Begin()
	if len(applied) == 0 {
		return 0
	}
	i.epoch++
	st0 := i.stats
	i.stats.Ledger.Runs++
	i.stats.Ledger.Touched += int64(len(applied))
	i.stats.Ledger.RecomputeEst = int64(i.g.NumNodes())
	if i.tracer != nil {
		i.tracer.BeginRun(len(applied), 0)
	}
	start := time.Now()

	// Seed h with the heads of deleted tight edges (anchor candidates);
	// inserted edges only improve their heads, so their tails go straight
	// to the step-function queue.
	h0 := 0
	tight := func(u, v graph.NodeID, w int64) bool {
		return i.dist[u] < Infinity && i.dist[u]+w == i.dist[v]
	}
	for _, up := range applied {
		if up.Kind != graph.DeleteEdge {
			continue
		}
		if tight(up.From, up.To, up.W) {
			i.hEnqueue(up.To)
		}
		if !i.g.Directed() && tight(up.To, up.From, up.W) {
			i.hEnqueue(up.From)
		}
	}

	// h (Fig. 4): revise in ascending old-distance order. Nodes whose old
	// values survive the feasibility check need no further action: their
	// update functions lost only non-tight candidates.
	var revised []graph.NodeID
	for {
		x, ok := i.hq.Pop()
		if !ok {
			break
		}
		i.stats.HPops++
		h0++
		v := graph.NodeID(x)
		i.ledgerAff(v)
		dv := i.oldDist(v)
		newv := i.feasibleValue(v, dv)
		if newv > i.dist[v] {
			if i.mark[v] != i.epoch {
				i.mark[v] = i.epoch
				i.oldVal[v] = i.dist[v]
			}
			i.led.Write(int32(v), i.dist[v])
			i.dist[v] = newv
			i.stats.HResets++
			revised = append(revised, v)
			// Propagate along v's anchor edges only: C_xw = tight in-edges
			// (Example 3), i.e. out-edges (v, w) with old dist_v + w(v, w)
			// = old dist_w. Non-tight edges never justified w's value.
			i.hAnchors(v, dv)
		}
	}
	mid := time.Now()
	if i.tracer != nil {
		i.tracer.ScopeDone(i.stats.HPops-st0.HPops, i.stats.HResets-st0.HResets, int64(h0))
	}

	// Resume the batch step function: recompute the revised nodes from
	// actual values, relax the inserted edges against the (now feasible)
	// status, then run Dijkstra's loop (lines 4-10 of Fig. 1).
	for _, v := range revised {
		if nb := i.best(v); nb != i.dist[v] {
			i.led.Write(int32(v), i.dist[v])
			i.dist[v] = nb
		}
		i.wq.AddOrAdjust(int32(v))
	}
	relax := func(u, v graph.NodeID, w int64) {
		i.ledgerAff(u) // push-seed analog: the tail re-propagates
		if i.dist[u] < Infinity && i.dist[u]+w < i.dist[v] && i.holds(u, v, w) {
			i.led.Write(int32(v), i.dist[v])
			i.dist[v] = i.dist[u] + w
			i.wq.AddOrAdjust(int32(v))
		}
	}
	for _, up := range applied {
		if up.Kind != graph.InsertEdge {
			continue
		}
		i.stats.Ledger.Seeds++
		relax(up.From, up.To, up.W)
		if !i.g.Directed() {
			relax(up.To, up.From, up.W)
		}
	}
	// The outer loop counts BFS-level rounds into the ledger (queue size
	// at round start bounds the inner pops) without changing Dijkstra's
	// pop order.
	for i.wq.Len() > 0 {
		i.stats.Ledger.Rounds++
		for n := i.wq.Len(); n > 0; n-- {
			x, ok := i.wq.Pop()
			if !ok {
				break
			}
			i.stats.Pops++
			v := graph.NodeID(x)
			dv := i.dist[v]
			if dv >= Infinity {
				continue
			}
			i.relaxOut(v, dv)
		}
	}
	i.stats.Ledger.Changed += i.led.Settle(func(v int32, start int64) bool {
		if i.dist[v] == start {
			return false
		}
		i.ledgerAff(graph.NodeID(v))
		return true
	})
	i.stats.ScopeSize = int64(h0)
	i.stats.HSeconds += mid.Sub(start).Seconds()
	i.stats.ResumeSeconds += time.Since(mid).Seconds()
	if i.tracer != nil {
		// Inc does not count value changes in the resume phase; the pops
		// delta carries the propagation cost.
		i.tracer.EndRun(i.stats.Pops-st0.Pops, 0)
	}
	return h0
}

// holds reports whether u's row holds v at weight w. An insert the same
// batch deletes again, or replaces at another weight, is in the applied
// list too, and relaxing it would lower dist[v] along an edge G ⊕ ΔG
// does not have.
func (i *Inc) holds(u, v graph.NodeID, w int64) bool {
	ts, ws, _, _ := i.flat.OutSpans(u)
	k, ok := slices.BinarySearch(ts, v)
	return ok && ws[k] == w
}

func (i *Inc) hEnqueue(v graph.NodeID) {
	i.hkey[v] = i.oldDist(v)
	i.hq.AddOrAdjust(int32(v))
}

// hAnchors is h's anchor propagation: enqueue every out-neighbor w with
// old dist_v + w(v, w) = old dist_w.
func (i *Inc) hAnchors(v graph.NodeID, dv int64) {
	if dv >= Infinity {
		return
	}
	ts, ws, _, _ := i.flat.OutSpans(v)
	for k, t := range ts {
		if dv+ws[k] == i.oldDist(t) {
			i.hEnqueue(t)
		}
	}
}

// relaxOut relaxes every out-edge of v at distance dv: the
// struct-of-arrays inner loop of the resumed Dijkstra, scanning contiguous
// target and weight arrays instead of chasing []Edge pointers.
func (i *Inc) relaxOut(v graph.NodeID, dv int64) {
	ts, ws, _, _ := i.flat.OutSpans(v)
	for k, t := range ts {
		i.stats.Updates++
		if alt := dv + ws[k]; alt < i.dist[t] {
			i.led.Write(int32(t), i.dist[t])
			i.dist[t] = alt
			i.wq.AddOrAdjust(int32(t))
		}
	}
}

// feasibleValue evaluates f_v on the feasible input set Ȳ_v: in-neighbors
// determined at or after v in the old distance order contribute their
// initial value ∞ (Fig. 4, lines 5-6).
func (i *Inc) feasibleValue(v graph.NodeID, dv int64) int64 {
	if v == i.src {
		return 0
	}
	best := Infinity
	ts, ws, _, _ := i.flat.InSpans(v)
	for k, u := range ts {
		i.stats.Reads++
		if i.oldDist(u) >= dv {
			continue // determined later: its feasible stand-in is ∞
		}
		if d := i.dist[u]; d < Infinity && d+ws[k] < best {
			best = d + ws[k]
		}
	}
	return best
}

// best is Dijkstra's relaxation target: the minimum in-neighbor distance
// plus weight, on actual current values.
func (i *Inc) best(v graph.NodeID) int64 {
	if v == i.src {
		return 0
	}
	best := Infinity
	ts, ws, _, _ := i.flat.InSpans(v)
	for k, u := range ts {
		i.stats.Reads++
		if d := i.dist[u]; d < Infinity && d+ws[k] < best {
			best = d + ws[k]
		}
	}
	return best
}
