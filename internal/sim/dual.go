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
	qin, _, _, _ := s.Q.Flat().InSpans(u)
	gin, _, _, _ := s.G.Flat().InSpans(v)
	for _, up := range qin {
		found := false
		for _, vp := range gin {
			if get(s.PairVar(vp, up)) {
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
	gin, _, _, _ := s.G.Flat().InSpans(v)
	qin, _, _, _ := s.Q.Flat().InSpans(u)
	for _, vp := range gin {
		for _, up := range qin {
			yield(s.PairVar(vp, up))
		}
	}
}

// Dependents is the mirror image: pairs whose child condition reads x
// (in×in) and pairs whose parent condition reads x (out×out).
func (s *DualInstance) Dependents(x fixpoint.Var, yield func(fixpoint.Var)) {
	s.Instance.Dependents(x, yield)
	v, u := s.pair(x)
	gout, _, _, _ := s.G.Flat().OutSpans(v)
	qout, _, _, _ := s.Q.Flat().OutSpans(u)
	for _, vp := range gout {
		for _, up := range qout {
			yield(s.PairVar(vp, up))
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
