package sim

import (
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// DualInstance extends the Sim instance to *dual simulation*: a match must
// satisfy both the child condition (every pattern out-edge simulated by a
// data out-edge) and the parent condition (every pattern in-edge simulated
// by a data in-edge). Dual simulation prunes false matches that plain
// simulation keeps and is the stepping stone to stronger pattern-matching
// semantics.
//
// It demonstrates what "extending the class Φ" (the paper's future work)
// costs in this framework: a new update function and input/dependent sets;
// correctness and relative boundedness then follow from Theorem 3, since
// the instance stays contracting and monotonic under false ≺ true.
type DualInstance struct {
	*Instance
}

// NewDualInstance binds a data graph and a pattern for dual simulation.
func NewDualInstance(g, q *graph.Graph) *DualInstance {
	return &DualInstance{NewInstance(g, q)}
}

// Update evaluates the dual-simulation condition for the pair.
func (s *DualInstance) Update(x fixpoint.Var, get func(fixpoint.Var) bool) bool {
	if !s.Instance.Update(x, get) {
		return false
	}
	v, u := s.pair(x)
	for _, qe := range s.Q.In(u) {
		found := false
		for _, ge := range s.G.In(v) {
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

// Inputs yields both the child-condition inputs (out×out) and the
// parent-condition inputs (in×in).
func (s *DualInstance) Inputs(x fixpoint.Var, yield func(fixpoint.Var)) {
	s.Instance.Inputs(x, yield)
	v, u := s.pair(x)
	for _, ge := range s.G.In(v) {
		for _, qe := range s.Q.In(u) {
			yield(s.PairVar(ge.To, qe.To))
		}
	}
}

// Dependents is the mirror image: pairs whose child condition reads x
// (in×in) and pairs whose parent condition reads x (out×out).
func (s *DualInstance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) {
	s.Instance.Dependents(x, yield)
	v, u := s.pair(x)
	for _, ge := range s.G.Out(v) {
		for _, qe := range s.Q.Out(u) {
			yield(s.PairVar(ge.To, qe.To))
		}
	}
}

// DualSim computes the maximum dual simulation with a batch engine run.
func DualSim(g, q *graph.Graph) Relation {
	inst := NewDualInstance(g, q)
	eng := fixpoint.New[bool](inst, fixpoint.FIFOOrder)
	eng.Run()
	return Relation{NQ: q.NumNodes(), Bits: append([]bool(nil), eng.State().Val...)}
}

// IncDual incrementally maintains the maximum dual simulation through the
// generic engine — the whole incremental algorithm is the touched-pair
// bookkeeping below; h and the resumed step function come from the
// framework.
type IncDual struct {
	g, q *graph.Graph
	inst *DualInstance
	eng  *fixpoint.Engine[bool]
	// seen/touched: reusable touched-set arena (fixpoint.VarSet) replacing
	// the per-Apply map[Var]bool.
	seen    fixpoint.VarSet
	touched []fixpoint.Var
}

// NewIncDual computes the initial relation and returns the maintainer.
func NewIncDual(g, q *graph.Graph) *IncDual {
	inst := NewDualInstance(g, q)
	eng := fixpoint.New[bool](inst, fixpoint.FIFOOrder)
	eng.Run()
	return &IncDual{g: g, q: q, inst: inst, eng: eng}
}

// Graph returns the maintained data graph.
func (i *IncDual) Graph() *graph.Graph { return i.g }

// Relation returns the current match relation.
func (i *IncDual) Relation() Relation {
	return Relation{NQ: i.q.NumNodes(), Bits: append([]bool(nil), i.eng.State().Val...)}
}

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and incrementally maintains the relation.
func (i *IncDual) Apply(b graph.Batch) int {
	applied := i.g.Apply(b)
	i.eng.Grow()
	nq := i.q.NumNodes()
	i.seen.Begin(i.inst.NumVars())
	i.touched = i.touched[:0]
	touch := func(v graph.NodeID) {
		for u := 0; u < nq; u++ {
			x := i.inst.PairVar(v, graph.NodeID(u))
			if i.seen.Add(x) {
				i.touched = append(i.touched, x)
			}
		}
	}
	for _, up := range applied {
		// Both endpoints' input sets evolve: the source's child condition
		// and the target's parent condition.
		touch(up.From)
		touch(up.To)
	}
	return len(i.eng.IncrementalRun(i.touched))
}
