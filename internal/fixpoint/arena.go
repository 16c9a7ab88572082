package fixpoint

// arena.go: epoch-marked dense scratch sets for the repair hot path. The
// class adapters used to allocate map[Var]bool per Apply to deduplicate
// touched variables and scope seeds; on large batches those maps dominated
// the constant factor of repair. A VarSet is the flat replacement: one
// uint32 mark array indexed by variable id plus an epoch counter, so Begin
// is O(1) and membership is a single array compare — no hashing, no
// allocation after the array reaches steady-state size.

// VarSet is a reusable dense set of variables, 4 B a variable. Begin
// starts a new generation in O(1) by bumping the epoch; Add inserts with
// one array write. The zero value is ready to use.
type VarSet struct {
	mark  []uint32
	epoch uint32
}

// Begin clears the set. The first Begin sizes it to n variables, for
// good: a graph's node set is fixed when the graph is built. It is O(1)
// but once every 2³² generations, when the epoch wraps and the marks are
// cleared, so that no mark of an earlier generation can read as the new
// one.
func (s *VarSet) Begin(n int) {
	if s.mark == nil {
		s.mark = make([]uint32, n)
	}
	if s.epoch++; s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
}

// Add inserts x and reports whether it was newly added.
func (s *VarSet) Add(x Var) bool {
	if s.mark[x] == s.epoch {
		return false
	}
	s.mark[x] = s.epoch
	return true
}

// Remove takes x out of the generation Begin started, which is never 0.
func (s *VarSet) Remove(x Var) { s.mark[x] = 0 }

// Has reports whether x is in the current generation.
func (s *VarSet) Has(x Var) bool {
	return s.mark[x] == s.epoch
}

// ScopeArena accumulates the deduplicated touched set and push seeds for
// one incremental apply, replacing the per-apply map[Var]bool pairs in
// the class adapters. The backing arrays are reused across applies: after
// warm-up, building a scope allocates nothing.
type ScopeArena struct {
	touchedSet VarSet
	seedSet    VarSet
	pos        []int32 // index of x in touched, valid when touchedSet.Has(x)
	touched    []Touched
	seeds      []Var
}

// Begin starts a new apply, clearing both accumulators in O(1). The
// first Begin sizes the arena to n variables, for good (see VarSet.Begin).
func (a *ScopeArena) Begin(n int) {
	a.touchedSet.Begin(n)
	a.seedSet.Begin(n)
	if a.pos == nil {
		a.pos = make([]int32, n)
	}
	a.touched = a.touched[:0]
	a.seeds = a.seeds[:0]
}

// Touch records x as touched. MaybeInfeasible marks variables whose
// current value may have become infeasible (deletion side); it is sticky
// across duplicate touches of the same variable.
func (a *ScopeArena) Touch(x Var, maybeInfeasible bool) {
	if a.touchedSet.Add(x) {
		a.pos[x] = int32(len(a.touched))
		a.touched = append(a.touched, Touched{X: x, MaybeInfeasible: maybeInfeasible})
		return
	}
	if maybeInfeasible {
		a.touched[a.pos[x]].MaybeInfeasible = true
	}
}

// Seed records x as a push seed (insertion side), deduplicated.
func (a *ScopeArena) Seed(x Var) {
	if a.seedSet.Add(x) {
		a.seeds = append(a.seeds, x)
	}
}

// Touched returns the deduplicated touched set in first-touch order. The
// slice is owned by the arena and valid until the next Begin.
func (a *ScopeArena) Touched() []Touched { return a.touched }

// Seeds returns the deduplicated push seeds in first-seed order. The
// slice is owned by the arena and valid until the next Begin.
func (a *ScopeArena) Seeds() []Var { return a.seeds }
