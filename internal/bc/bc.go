// Package bc implements biconnectivity (BC), the sixth query class the
// paper names as a fixpoint algorithm (§3): articulation points and
// biconnected components of an undirected graph.
//
// The batch algorithm is the classic lowpoint DFS (Hopcroft–Tarjan). The
// structure it leaves is per node, not per edge: the articulation flag,
// the DFS number, and the block of the tree edge into the node. The block
// of any edge is then a lookup — a non-tree edge lies in the block of the
// tree edge into its deeper endpoint — so closing a block labels the nodes
// popped off a node stack, and no map keyed by edge exists.
//
// The deduced incremental algorithm Inc follows the framework's PE
// discipline at connected-component granularity: a batch ΔG marks the
// components it touches as potentially affected and re-derives lowpoints
// only there, reusing every other component's results. This is the coarse
// deducible incrementalization of Theorem 1 — biconnectivity is globally
// brittle within a component (one inserted edge can clear articulation
// points along an entire cycle), so the touched component is the natural
// affected area for BC.
//
// A finer affected area — the blocks an update can split or merge, kept
// in a block-cut forest — was sized against the repository benchmark's
// burst workload before any of it was written, and not built: that graph
// (6,000 nodes, degree 27, power law) is one biconnected block after every
// batch, so a block-local repair revisits the same 6,000 nodes as this
// one. EXPERIMENTS.md has the measurement.
package bc

import (
	"fmt"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Result describes the biconnectivity structure: per-node articulation
// flags and, through EdgeComp, a biconnected-component id per edge. Ids
// are opaque: distinct ids mean distinct components, but their values
// depend on where the traversal started — compare results with Equivalent.
type Result struct {
	// Articulation[v] reports whether removing v disconnects its
	// connected component.
	Articulation []bool
	// Block[v] is the id of the block holding the tree edge into v, -1 for
	// a node without one (the root of its component's traversal, or an
	// isolated node). A block's id is the node at which the traversal
	// closed it, the block's topmost non-root node: Block[v] == v says v
	// heads a block, and every block has exactly one head.
	Block []graph.NodeID
	// Num[v] is v's DFS number. Numbers are comparable between nodes of one
	// connected component only: every traversal starts counting anew.
	Num []int32

	comps int // the number of heads
}

// newResult returns the result for n isolated nodes.
func newResult(n int) *Result {
	r := &Result{Articulation: make([]bool, n), Block: make([]graph.NodeID, n), Num: make([]int32, n)}
	for v := range r.Block {
		r.Block[v] = -1
	}
	return r
}

// EdgeComp returns the biconnected-component id of the edge {u, v}, which
// must be an edge of the graph the result describes: the block of the tree
// edge into whichever endpoint the traversal reached later.
func (r *Result) EdgeComp(u, v graph.NodeID) int32 {
	if r.Num[u] > r.Num[v] {
		return int32(r.Block[u])
	}
	return int32(r.Block[v])
}

// NumComps returns the number of biconnected components, a count kept as
// blocks close and dissolve.
func (r *Result) NumComps() int { return r.comps }

// Equivalent reports whether two results describe the same biconnectivity
// structure of g: identical articulation flags and the same partition of
// g's edges (up to a bijective renaming of component ids).
func (r *Result) Equivalent(o *Result, g *graph.Graph) bool {
	n := g.NumNodes()
	if len(r.Articulation) != n || len(o.Articulation) != n || r.comps != o.comps {
		return false
	}
	for i := range r.Articulation {
		if r.Articulation[i] != o.Articulation[i] {
			return false
		}
	}
	// Ids are node ids, so the renaming and its inverse are arrays.
	fwd, bwd := make([]int32, n), make([]int32, n)
	for i := range fwd {
		fwd[i], bwd[i] = -1, -1
	}
	same := true
	g.Edges(func(u, v graph.NodeID, _ int64) {
		a, b := r.EdgeComp(u, v), o.EdgeComp(u, v)
		if a < 0 || b < 0 || (fwd[a] >= 0 && fwd[a] != b) || (bwd[b] >= 0 && bwd[b] != a) {
			same = false
			return
		}
		fwd[a], bwd[b] = b, a
	})
	return same
}

// Run computes the biconnectivity structure of an undirected graph with
// an iterative lowpoint DFS from the smallest-id node of every component.
func Run(g *graph.Graph) *Result {
	r := newResult(g.NumNodes())
	newLowpointState(g.NumNodes(), g.Flat()).runAll(r)
	return r
}

// lowpointState carries the DFS bookkeeping. It is reusable across rounds
// — visited is an epoch-marked set — so the incremental algorithm re-runs
// single components without clearing global arrays.
type lowpointState struct {
	// flat's rows are read in place: biconnectivity does not depend on the
	// order neighbors are visited in.
	flat    *graph.Flat
	low     []int32
	visited fixpoint.VarSet
	clock   int32
	// nodes holds the discovered non-root nodes whose block is still open,
	// in discovery order; closing a block pops its members.
	nodes  []graph.NodeID
	fstack []bcFrame
	// seen lists every node discovered since begin with the articulation
	// flag it had then — each node once, so no set is needed to settle
	// what changed — and scanned counts the live row entries read.
	seen    []seenNode
	scanned int64
}

type seenNode struct {
	v   graph.NodeID
	was bool
}

func newLowpointState(n int, f *graph.Flat) *lowpointState {
	st := &lowpointState{flat: f, low: make([]int32, n)}
	st.visited.Begin(n)
	return st
}

// begin starts a round of traversals: nothing visited, nothing seen, and
// the clock back at zero. DFS numbers are only ever compared inside one
// component, which one traversal numbers whole, so a round need not count
// on from the last — and a clock that did would wrap after 2³¹ discoveries.
func (st *lowpointState) begin() {
	st.visited.Begin(0)
	st.clock = 0
	st.seen = st.seen[:0]
	st.scanned = 0
}

// runAll traverses every component.
func (st *lowpointState) runAll(r *Result) {
	st.begin()
	for s := range st.low {
		if !st.visited.Has(fixpoint.Var(s)) {
			st.runComponent(graph.NodeID(s), r)
		}
	}
}

// discover numbers v and takes it out of the structure it was in: a head
// rediscovered is a block dissolved.
func (st *lowpointState) discover(v graph.NodeID, r *Result) {
	st.clock++
	st.visited.Add(fixpoint.Var(v))
	r.Num[v] = st.clock
	st.low[v] = st.clock
	if r.Block[v] == v {
		r.comps--
	}
	r.Block[v] = -1
	st.seen = append(st.seen, seenNode{v, r.Articulation[v]})
	r.Articulation[v] = false
}

// bcFrame is one DFS stack frame: the node, its row, and the cursor i
// over the row. The row is the Flat's own and dies with the next Stage; by
// then every frame has popped.
type bcFrame struct {
	v, parent graph.NodeID
	i         int32
	children  int32
	ts        []graph.NodeID
}

func (st *lowpointState) push(v, parent graph.NodeID) {
	ts, _, _, _ := st.flat.OutSpans(v)
	st.fstack = append(st.fstack, bcFrame{v: v, parent: parent, ts: ts})
}

// runComponent explores the connected component of s, filling r's
// articulation flags, numbers and blocks for exactly that component.
func (st *lowpointState) runComponent(s graph.NodeID, r *Result) {
	st.discover(s, r)
	st.nodes = st.nodes[:0]
	st.fstack = st.fstack[:0]
	st.push(s, -1)
	for len(st.fstack) > 0 {
		f := &st.fstack[len(st.fstack)-1]
		if int(f.i) < len(f.ts) {
			w := f.ts[f.i]
			f.i++
			st.scanned++
			if w == f.parent {
				f.parent = -1 // skip the tree edge back to the parent once
				continue
			}
			if !st.visited.Has(fixpoint.Var(w)) {
				st.discover(w, r)
				st.nodes = append(st.nodes, w)
				f.children++
				st.push(w, f.v)
			} else if r.Num[w] < st.low[f.v] {
				// Back edge to an ancestor (a descendant's number is above
				// Num[f.v], so above low[f.v] too).
				st.low[f.v] = r.Num[w]
			}
			continue
		}
		v := f.v
		st.fstack = st.fstack[:len(st.fstack)-1]
		if len(st.fstack) == 0 {
			break
		}
		p := &st.fstack[len(st.fstack)-1]
		if st.low[v] < st.low[p.v] {
			st.low[p.v] = st.low[v]
		}
		if st.low[v] >= r.Num[p.v] {
			// p.v separates v's subtree: one biconnected component closes,
			// headed by v. Non-root parents become articulation points; the
			// root does when it has a second child.
			if len(st.fstack) > 1 || p.children > 1 {
				r.Articulation[p.v] = true
			}
			for {
				w := st.nodes[len(st.nodes)-1]
				st.nodes = st.nodes[:len(st.nodes)-1]
				r.Block[w] = v
				if w == v {
					break
				}
			}
			r.comps++
		}
	}
}

// Inc is the deducible incremental BC algorithm: Apply re-derives the
// biconnectivity structure of exactly the connected components touched by
// ΔG (in G ⊕ ΔG), discovered by traversal from the update endpoints — no
// global scan. Every node of a component ΔG touched in G lies in one it
// touches in G ⊕ ΔG (a part split off by deletions holds an endpoint of
// one of them), so the traversals rediscover every head of a block that
// may have dissolved, and the component count needs no other repair.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Result aliases state that Apply mutates. Concurrent serving goes
// through internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g       *graph.Graph
	round   uint64 // the last round of g this maintainer took
	res     *Result
	st      *lowpointState
	written []int32
	stats   fixpoint.Stats
}

// NewInc runs the batch algorithm and returns the incremental one.
func NewInc(g *graph.Graph) *Inc {
	i := Blank(g)
	i.st.runAll(i.res)
	return i
}

// Blank returns the incremental algorithm over g before the batch run,
// every node its own block: the maintainer a checkpointed structure is
// restored into (RestoreState) or Recompute fills, before Apply.
func Blank(g *graph.Graph) *Inc {
	i := &Inc{g: g, round: g.Round(), res: newResult(g.NumNodes())}
	i.st = newLowpointState(g.NumNodes(), g.Flat())
	return i
}

// Recompute reruns the batch traversal in place, at the graph's round: it
// rewrites every flag, block and number, leaving what NewInc builds.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	i.st.runAll(i.res)
	i.written = i.written[:0]
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Result returns the maintained structure (aliased).
func (i *Inc) Result() *Result { return i.res }

// Written lists the nodes whose articulation flag the last Repair (or
// Apply) changed, each once. It aliases internal state, allocates nothing,
// and is valid until the next Repair.
func (i *Inc) Written() []int32 { return i.written }

// Stats exposes the work account: per Repair the ledger gains the applied
// updates (Touched), the nodes revisited (Aff), the live row entries
// scanned on the way (AffEdges) and the revisited nodes whose articulation
// flag came out different (Changed).
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// RestoreState overwrites the maintained structure with one exported
// from a checkpoint of the same graph: the three per-node arrays of
// Result. The block count is recounted from the heads. The inputs are
// copied.
func (i *Inc) RestoreState(articulation []bool, block []graph.NodeID, num []int32) error {
	n := i.g.NumNodes()
	if len(articulation) != n || len(block) != n || len(num) != n {
		return fmt.Errorf("bc: restore of %d/%d/%d flags, blocks and numbers into graph with %d nodes",
			len(articulation), len(block), len(num), n)
	}
	res := &Result{
		Articulation: append([]bool(nil), articulation...),
		Block:        append([]graph.NodeID(nil), block...),
		Num:          append([]int32(nil), num...),
	}
	for v, b := range res.Block {
		if b == graph.NodeID(v) {
			res.comps++
		}
	}
	i.res = res
	return nil
}

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and repairs the structure; it returns the number of nodes
// revisited (the affected-area measure).
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair re-runs the lowpoint DFS over the components the newest round touched.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	i.written = i.written[:0]
	if len(applied) == 0 {
		return 0
	}
	i.st.begin()
	for _, u := range applied {
		for _, v := range [2]graph.NodeID{u.From, u.To} {
			if !i.st.visited.Has(fixpoint.Var(v)) {
				i.st.runComponent(v, i.res)
			}
		}
	}
	for _, s := range i.st.seen {
		if i.res.Articulation[s.v] != s.was {
			i.written = append(i.written, int32(s.v))
		}
	}
	led := &i.stats.Ledger
	led.Runs++
	led.Touched += int64(len(applied))
	led.Aff += int64(len(i.st.seen))
	led.AffEdges += i.st.scanned
	led.Changed += int64(len(i.written))
	led.RecomputeEst = int64(i.g.NumNodes())
	return len(i.st.seen)
}
