// Package sim implements graph pattern matching via graph simulation
// (§5.1 of the paper): the counter-based batch fixpoint algorithm Sim_fp
// (Henzinger–Henzinger–Kopke style), the weakly deducible incremental
// algorithm IncSim whose timestamps resolve cyclic patterns, and the
// IncMatch competitor (Fan–Wang–Wu style).
//
// A simulation relation R ⊆ V × V_Q requires label equality and, for every
// pattern edge (u, u'), a data edge (v, v') with ⟨v', u'⟩ ∈ R. Q(G) is the
// unique maximum such relation, represented here as a Relation bitmap.
package sim

import (
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Relation is a match relation over V × V_Q, stored as a dense bitmap.
type Relation struct {
	NQ   int
	Bits []bool
}

// NewRelation allocates an all-false relation for n data nodes and nq
// pattern nodes.
func NewRelation(n, nq int) Relation {
	return Relation{NQ: nq, Bits: make([]bool, n*nq)}
}

// Match reports whether data node v matches pattern node u.
func (r Relation) Match(v graph.NodeID, u graph.NodeID) bool {
	return r.Bits[int(v)*r.NQ+int(u)]
}

// Count returns the number of matching pairs.
func (r Relation) Count() int {
	c := 0
	for _, b := range r.Bits {
		if b {
			c++
		}
	}
	return c
}

// Equal reports whether two relations are identical.
func (r Relation) Equal(o Relation) bool {
	if r.NQ != o.NQ || len(r.Bits) != len(o.Bits) {
		return false
	}
	for i := range r.Bits {
		if r.Bits[i] != o.Bits[i] {
			return false
		}
	}
	return true
}

// Naive computes the maximum simulation by global refinement passes, the
// O(rounds·|V||V_Q|·deg) reference used by tests.
func Naive(g, q *graph.Graph) Relation {
	n, nq := g.NumNodes(), q.NumNodes()
	r := NewRelation(n, nq)
	for v := 0; v < n; v++ {
		for u := 0; u < nq; u++ {
			r.Bits[v*nq+u] = g.Label(graph.NodeID(v)) == q.Label(graph.NodeID(u))
		}
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			for u := 0; u < nq; u++ {
				if !r.Bits[v*nq+u] {
					continue
				}
				ok := true
				for _, qe := range q.Out(graph.NodeID(u)) {
					found := false
					for _, ge := range g.Out(graph.NodeID(v)) {
						if r.Bits[int(ge.To)*nq+int(qe.To)] {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if !ok {
					r.Bits[v*nq+u] = false
					changed = true
				}
			}
		}
	}
	return r
}

// Simfp is the paper's batch fixpoint algorithm for Sim: it maintains
// counters cnt(v, u') of v's out-neighbors matching u', seeds a worklist
// with exhausted counters, and cascades violations. It returns the maximum
// simulation. It is the counter core IncSim and IncMatch are built on
// (simState), run once from the label-match bottoms over the rows of a
// fresh graph.NewFlat(g), never a staged one; tests hold it to the
// independent Naive.
func Simfp(g, q *graph.Graph) Relation { return newSimState(g, graph.NewFlat(g), q, false).relation() }

// Instance is the Sim instantiation of the fixpoint model: one Boolean
// variable per pair ⟨v, u⟩, f_x true iff labels match and every pattern
// edge out of u is simulated by some data edge out of v. With false ≺
// true it is contracting and monotonic, so Theorem 3 applies; the engine's
// timestamps are exactly the x[v,u].t of §5.1.
type Instance struct {
	G, Q *graph.Graph
	nq   int
}

// NewInstance binds a data graph and a pattern.
func NewInstance(g, q *graph.Graph) *Instance {
	return &Instance{G: g, Q: q, nq: q.NumNodes()}
}

// PairVar returns the variable id of pair ⟨v, u⟩.
func (s *Instance) PairVar(v, u graph.NodeID) fixpoint.Var {
	return fixpoint.Var(int(v)*s.nq + int(u))
}

func (s *Instance) pair(x fixpoint.Var) (graph.NodeID, graph.NodeID) {
	return graph.NodeID(int(x) / s.nq), graph.NodeID(int(x) % s.nq)
}

// NumVars returns |V| × |V_Q|.
func (s *Instance) NumVars() int { return s.G.NumNodes() * s.nq }

// Bottom is true iff the labels match: the initial over-approximation.
func (s *Instance) Bottom(x fixpoint.Var) bool {
	v, u := s.pair(x)
	return s.G.Label(v) == s.Q.Label(u)
}

// Less orders false ≺ true: matches are only ever retracted.
func (s *Instance) Less(a, b bool) bool { return !a && b }

// Equal reports Boolean equality.
func (s *Instance) Equal(a, b bool) bool { return a == b }

// Inputs yields the pairs ⟨v', u'⟩ over v's and u's out-neighbors.
func (s *Instance) Inputs(x fixpoint.Var, yield func(fixpoint.Var)) {
	v, u := s.pair(x)
	for _, ge := range s.G.Out(v) {
		for _, qe := range s.Q.Out(u) {
			yield(s.PairVar(ge.To, qe.To))
		}
	}
}

// Dependents yields the pairs over in-neighbors.
func (s *Instance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) {
	v, u := s.pair(x)
	for _, ge := range s.G.In(v) {
		for _, qe := range s.Q.In(u) {
			yield(s.PairVar(ge.To, qe.To))
		}
	}
}

// Update evaluates the simulation condition for the pair.
func (s *Instance) Update(x fixpoint.Var, get func(fixpoint.Var) bool) bool {
	v, u := s.pair(x)
	if s.G.Label(v) != s.Q.Label(u) {
		return false
	}
	for _, qe := range s.Q.Out(u) {
		found := false
		for _, ge := range s.G.Out(v) {
			if get(s.PairVar(ge.To, qe.To)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Seeds yields the label-matching pairs; all others start false and stay
// false.
func (s *Instance) Seeds(yield func(fixpoint.Var)) {
	for x := 0; x < s.NumVars(); x++ {
		if s.Bottom(fixpoint.Var(x)) {
			yield(fixpoint.Var(x))
		}
	}
}

// IncEngine is the weakly deducible incremental algorithm IncSim
// expressed directly through the generic fixpoint engine. Its engine
// timestamps record when each pair turned false, providing the anchor
// order <_C that makes insertions on cyclic patterns repairable (Example
// 6). The counter-based Inc in incsim.go is the tuned equivalent used by
// the benchmarks; both compute the same relation. Run over a
// DualInstance it maintains dual simulation instead (NewIncDual): the
// whole incremental algorithm is the touched-pair bookkeeping in Repair;
// h and the resumed step function come from the framework.
type IncEngine struct {
	g     *graph.Graph
	round uint64 // the last round of g this algorithm took
	inst  *Instance
	eng   *fixpoint.Engine[bool]
	// dual also touches an edge's target pairs on directed graphs: dual
	// simulation's parent condition reads the target's in-edges.
	dual  bool
	arena fixpoint.ScopeArena
}

// IncDual incrementally maintains the maximum dual simulation: an
// IncEngine over a DualInstance.
type IncDual = IncEngine

// NewIncEngine computes the initial maximum simulation and returns the
// algorithm.
func NewIncEngine(g, q *graph.Graph) *IncEngine {
	inst := NewInstance(g, q)
	return newIncEngine(g, inst, inst, false)
}

// NewIncDual computes the initial maximum dual simulation and returns the
// maintainer.
func NewIncDual(g, q *graph.Graph) *IncDual {
	inst := NewDualInstance(g, q)
	return newIncEngine(g, inst.Instance, inst, true)
}

// newIncEngine runs the engine over run — inst itself, or the dual
// instance wrapping it — to the initial fixpoint.
func newIncEngine(g *graph.Graph, inst *Instance, run fixpoint.Instance[bool], dual bool) *IncEngine {
	eng := fixpoint.New[bool](run, fixpoint.FIFOOrder)
	eng.Run()
	return &IncEngine{g: g, round: g.Round(), inst: inst, eng: eng, dual: dual}
}

// Graph returns the maintained data graph.
func (i *IncEngine) Graph() *graph.Graph { return i.g }

// Relation returns the current match relation (copying the bitmap).
func (i *IncEngine) Relation() Relation {
	return Relation{NQ: i.inst.nq, Bits: append([]bool(nil), i.eng.State().Val...)}
}

// Stats exposes the engine's inspection counters.
func (i *IncEngine) Stats() fixpoint.Stats { return i.eng.State().Stats }

// State exposes the engine's status — the relation, the stamps that order
// its retractions (<_C) and the counters — aliased to internal state.
func (i *IncEngine) State() *fixpoint.State[bool] { return i.eng.State() }

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and incrementally maintains the relation. It returns |H⁰|.
func (i *IncEngine) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair maintains the relation over the data graph's newest round.
func (i *IncEngine) Repair() int {
	applied := i.g.Take(&i.round)
	a := &i.arena
	a.Begin(i.inst.NumVars())
	touch := func(v graph.NodeID) {
		for u := 0; u < i.inst.nq; u++ {
			a.Touch(i.inst.PairVar(v, graph.NodeID(u)), true)
		}
	}
	for _, up := range applied {
		// The input sets of all pairs on the edge's source evolved; for
		// undirected data graphs, and for dual simulation's parent
		// condition, the target's pairs evolve too.
		touch(up.From)
		if i.dual || !i.g.Directed() {
			touch(up.To)
		}
	}
	return len(i.eng.IncrementalRunDelta(a.Touched(), nil))
}
