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
