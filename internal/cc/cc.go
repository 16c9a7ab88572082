// Package cc implements connected components: the batch fixpoint algorithm
// CC_fp (min-label propagation, Example 2 of the paper), the weakly
// deducible incremental algorithm IncCC (Example 5, timestamps via the
// fixpoint engine), the naive deducible variant of Example 2 used as an
// ablation, and the DynCC competitor built on fully dynamic connectivity
// (Holm et al.).
//
// Directed graphs are treated as their underlying undirected graphs
// (weakly connected components). Components are identified by the minimum
// node id they contain.
package cc

import (
	"incgraph/internal/dynconn"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Components is the BFS reference implementation used by tests.
func Components(g *graph.Graph) []int64 {
	n := g.NumNodes()
	lab := make([]int64, n)
	for i := range lab {
		lab[i] = -1
	}
	var stack []graph.NodeID
	f := g.Flat()
	for s := 0; s < n; s++ {
		if lab[s] >= 0 {
			continue
		}
		lab[s] = int64(s)
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(y graph.NodeID) {
				if lab[y] < 0 {
					lab[y] = int64(s)
					stack = append(stack, y)
				}
			}
			out, _, _, _ := f.OutSpans(x)
			for _, y := range out {
				visit(y)
			}
			if g.Directed() {
				in, _, _, _ := f.InSpans(x)
				for _, y := range in {
					visit(y)
				}
			}
		}
	}
	return lab
}

// Instance is the CC instantiation of the fixpoint model (Example 2): one
// variable per node holding a component id, f_xv = min({id_v} ∪ Y_xv) over
// the neighbors. It is contracting and monotonic under the order on ids.
// Every adjacency read goes through the graph's sorted spans.
type Instance struct {
	G *graph.Graph
}

// NumVars returns one variable per node.
func (c *Instance) NumVars() int { return c.G.NumNodes() }

// Bottom returns the node's own id, the initial component label.
func (c *Instance) Bottom(x fixpoint.Var) int64 { return int64(x) }

// Less orders labels: smaller ids win.
func (c *Instance) Less(a, b int64) bool { return a < b }

// Equal reports label equality.
func (c *Instance) Equal(a, b int64) bool { return a == b }

// rows returns v's out-row and, on a directed graph, its in-row:
// together its (undirected) neighbors.
func (c *Instance) rows(v graph.NodeID) (out, in []graph.NodeID) {
	f := c.G.Flat()
	out, _, _, _ = f.OutSpans(v)
	if c.G.Directed() {
		in, _, _, _ = f.InSpans(v)
	}
	return out, in
}

func (c *Instance) neighbors(x fixpoint.Var, yield func(fixpoint.Var)) {
	out, in := c.rows(graph.NodeID(x))
	for _, u := range out {
		yield(fixpoint.Var(u))
	}
	for _, u := range in {
		yield(fixpoint.Var(u))
	}
}

// Inputs yields the (undirected) neighbors of x.
func (c *Instance) Inputs(x fixpoint.Var, yield func(fixpoint.Var)) { c.neighbors(x, yield) }

// Dependents equals Inputs: the dependency relation is symmetric.
func (c *Instance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) { c.neighbors(x, yield) }

// Update evaluates f_x: the minimum of the node's id and neighbor labels.
func (c *Instance) Update(x fixpoint.Var, get func(fixpoint.Var) int64) int64 {
	out, in := c.rows(graph.NodeID(x))
	return meet(meet(int64(x), out, get), in, get)
}

// meet folds get over one row.
func meet(best int64, row []graph.NodeID, get func(fixpoint.Var) int64) int64 {
	for _, u := range row {
		if l := get(fixpoint.Var(u)); l < best {
			best = l
		}
	}
	return best
}

// Seeds yields every variable: any node's statement may be false at start.
func (c *Instance) Seeds(yield func(fixpoint.Var)) {
	for x := 0; x < c.G.NumNodes(); x++ {
		yield(fixpoint.Var(x))
	}
}

// RelaxOut emits min-label candidates to the neighbors, the meet-form
// fast path of the engine.
func (c *Instance) RelaxOut(x fixpoint.Var, xv int64, emit func(fixpoint.Var, int64)) {
	c.neighbors(x, func(y fixpoint.Var) { emit(y, xv) })
}

// DependentRow appends x's neighbors to buf (fixpoint.UniformRelaxer):
// min-label propagation emits the same candidate everywhere, so the
// engine's drain installs it along this row with no per-edge closure.
// The row visits exactly what RelaxOut emits to, in the same order.
func (c *Instance) DependentRow(x fixpoint.Var, buf []fixpoint.Var) []fixpoint.Var {
	out, in := c.rows(graph.NodeID(x))
	return appendRow(appendRow(buf, out), in)
}

// appendRow appends the targets of one flat span to buf.
func appendRow(buf []fixpoint.Var, ts []graph.NodeID) []fixpoint.Var {
	for _, u := range ts {
		buf = append(buf, fixpoint.Var(u))
	}
	return buf
}

// OutDegree reports the number of dependency edges leaving x — its
// (undirected) neighbor count — feeding ‖AFF‖ in the engine's work ledger
// (see fixpoint.OutDegreer). O(1): the lengths of x's spans. Only an
// incremental run charges the ledger.
func (c *Instance) OutDegree(x fixpoint.Var) int64 {
	out, in := c.rows(graph.NodeID(x))
	return int64(len(out) + len(in))
}

// CCfp runs the batch fixpoint algorithm and returns the labels.
func CCfp(g *graph.Graph) []int64 {
	eng := fixpoint.New[int64](&Instance{G: g}, fixpoint.PriorityOrder)
	eng.Run()
	return eng.State().Val
}

// Inc is the weakly deducible incremental algorithm IncCC (Example 5). It
// keeps the timestamps recorded by the engine to derive the order <_C and
// anchor sets, so that deleting an edge inside a component inspects only
// the truly affected region rather than both sides.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Labels aliases engine state that Apply mutates. Concurrent serving
// goes through internal/serve, which gives each maintainer one apply
// loop and publishes immutable snapshots to readers.
type Inc struct {
	g     *graph.Graph
	round uint64 // the last round of g this maintainer took
	eng   *fixpoint.Engine[int64]
	arena fixpoint.ScopeArena
}

// NewInc computes the initial fixpoint and returns the algorithm.
func NewInc(g *graph.Graph) *Inc {
	i := Blank(g)
	i.eng.Run()
	return i
}

// Blank returns IncCC over g before the batch run, every label its node's
// id and every stamp 0: the maintainer a checkpointed state is restored
// into (RestoreState) or Recompute fills, before Apply.
func Blank(g *graph.Graph) *Inc {
	eng := fixpoint.New[int64](&Instance{G: g}, fixpoint.PriorityOrder)
	return &Inc{g: g, round: g.Round(), eng: eng}
}

// Recompute reruns the batch fixpoint in place, at the graph's round,
// leaving what NewInc builds.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	i.eng.Reset()
	i.eng.Run()
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Labels returns the current component labels, aliased to internal state.
func (i *Inc) Labels() []int64 { return i.eng.State().Val }

// Written lists the nodes whose label the last Apply wrote (see
// fixpoint.Engine.Written): a superset of the entries of Labels that
// changed, aliased to engine state and valid until the next Apply.
func (i *Inc) Written() []int32 { return i.eng.Written() }

// Stats exposes the engine's inspection counters.
func (i *Inc) Stats() fixpoint.Stats { return i.eng.State().Stats }

// ExportState copies out the engine state a durability checkpoint
// persists: labels, determination timestamps, and the logical clock. The
// timestamps are IncCC's auxiliary structure — the order <_C the anchor
// analysis reads — so restoring them preserves incremental behaviour
// across a restart, not just the answers.
func (i *Inc) ExportState() (labels, ts []int64, clock int64) {
	st := i.eng.State()
	return append([]int64(nil), st.Val...), append([]int64(nil), st.TS...), st.Clock()
}

// RestoreState installs state exported from a checkpoint of the same
// graph.
func (i *Inc) RestoreState(labels, ts []int64, clock int64) error {
	return i.eng.Restore(labels, ts, clock)
}

// Certify checks the labels, stamps and clock by fixpoint.CheckOrder:
// the labels are the components and the stamps the order <_C the next
// Apply's h relies on. It reads the one adjacency the repairs read, which
// the graph package's model test holds to an independent reference.
func (i *Inc) Certify() error {
	return fixpoint.CheckOrder[int64](&Instance{G: i.g}, i.eng.State())
}

// SetTracer installs the engine's span hook (see fixpoint.Tracer); it
// must be called from the single writer goroutine that drives Apply.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.eng.SetTracer(t) }

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and incrementally repairs the labels. It returns |H⁰|.
//
// Per-update feasibility analysis (§4): inserted edges only improve
// labels, so their endpoints keep feasible values and skip h's revision
// queue, going straight into H⁰ for the resumed step function. Deletion
// endpoints enter h's queue; h's timestamp-based anchor evaluation then
// establishes that usually only the later-determined endpoint is truly
// reset (Example 5).
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair runs the incremental algorithm over the graph's newest round.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	a := &i.arena
	a.Begin(i.g.NumNodes())
	for _, u := range applied {
		switch u.Kind {
		case graph.InsertEdge:
			// Insertions only improve labels: re-propagating from both
			// endpoints relaxes the new edge in whichever direction the
			// smaller label flows, even when deletions in the same batch
			// relabel either side during h.
			a.Seed(fixpoint.Var(u.From))
			a.Seed(fixpoint.Var(u.To))
		case graph.DeleteEdge:
			a.Touch(fixpoint.Var(u.From), true)
			a.Touch(fixpoint.Var(u.To), true)
		}
	}
	return len(i.eng.IncrementalRunDelta(a.Touched(), a.Seeds()))
}

// IncNaive is the deducible incremental algorithm of Example 2: it marks
// as potentially affected (PE) every variable reachable from ΔG through
// input sets, resets all of them to their initial values, and re-runs the
// step function. Correct by Theorem 1 but not relatively bounded — a unit
// deletion inside a large component recomputes the whole component — it
// serves as the ablation quantifying what timestamps buy.
type IncNaive struct {
	g     *graph.Graph
	round uint64 // the last round of g this algorithm took
	eng   *fixpoint.Engine[int64]
}

// NewIncNaive computes the initial fixpoint and returns the algorithm.
func NewIncNaive(g *graph.Graph) *IncNaive {
	eng := fixpoint.New[int64](&Instance{G: g}, fixpoint.PriorityOrder)
	eng.Run()
	return &IncNaive{g: g, round: g.Round(), eng: eng}
}

// Graph returns the maintained graph.
func (i *IncNaive) Graph() *graph.Graph { return i.g }

// Labels returns the current component labels.
func (i *IncNaive) Labels() []int64 { return i.eng.State().Val }

// Apply computes G ⊕ ΔG for any sequence of unit updates b and repairs
// the labels. It returns the number of PE variables.
func (i *IncNaive) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair expands the PE closure of the graph's newest round, resets it,
// and resumes the step function.
func (i *IncNaive) Repair() int {
	applied := i.g.Take(&i.round)
	st := i.eng.State()
	inst := &Instance{G: i.g}
	pe := make(map[fixpoint.Var]bool, 2*len(applied))
	var queue []fixpoint.Var
	add := func(x fixpoint.Var) {
		if !pe[x] {
			pe[x] = true
			queue = append(queue, x)
		}
	}
	for _, u := range applied {
		add(fixpoint.Var(u.From))
		add(fixpoint.Var(u.To))
	}
	// PE closure: any variable whose input set contains a PE variable.
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inst.Dependents(x, add)
	}
	scope := make([]fixpoint.Var, 0, len(pe))
	for x := range pe {
		st.Val[x] = inst.Bottom(x)
		scope = append(scope, x)
	}
	i.eng.ResumeFrom(scope)
	return len(pe)
}

// DynCC is the competitor: fully dynamic connectivity (Holm et al. [27])
// fed one unit update at a time, its native interface — the behaviour the
// paper exploits to show that batch updates favour the incrementalized
// algorithms.
type DynCC struct {
	g  *graph.Graph
	dc *dynconn.DynConn
}

// NewDynCC builds the connectivity structure for g.
func NewDynCC(g *graph.Graph) *DynCC {
	dc := dynconn.New(g.NumNodes())
	g.Edges(func(u, v graph.NodeID, w int64) {
		dc.Insert(int32(u), int32(v))
	})
	return &DynCC{g: g, dc: dc}
}

// Graph returns the maintained graph.
func (d *DynCC) Graph() *graph.Graph { return d.g }

// Apply processes each unit update individually through the dynamic
// structure.
func (d *DynCC) Apply(b graph.Batch) int {
	for _, u := range b {
		switch u.Kind {
		case graph.InsertEdge:
			if d.g.InsertEdge(u.From, u.To, u.W) {
				d.dc.Insert(int32(u.From), int32(u.To))
			}
		case graph.DeleteEdge:
			if d.g.DeleteEdge(u.From, u.To) {
				d.dc.Delete(int32(u.From), int32(u.To))
			}
		}
	}
	return 0
}

// Labels extracts min-id component labels for comparison with the
// fixpoint algorithms.
func (d *DynCC) Labels() []int64 {
	raw := d.dc.Labels()
	out := make([]int64, len(raw))
	for i, l := range raw {
		out[i] = int64(l)
	}
	return out
}
