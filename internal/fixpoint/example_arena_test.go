package fixpoint_test

import (
	"fmt"

	"incgraph/internal/fixpoint"
)

// ExampleScopeArena shows the reusable touched/seed accumulator the class
// adapters build their incremental scopes with: O(1) reset via epochs, no
// per-apply map allocation.
func ExampleScopeArena() {
	var a fixpoint.ScopeArena
	a.Begin(16)
	a.Touch(3, true)
	a.Touch(3, false) // duplicate: MaybeInfeasible stays sticky
	a.Seed(7)
	a.Seed(7) // deduplicated
	fmt.Println("touched:", a.Touched())
	fmt.Println("seeds:  ", a.Seeds())

	a.Begin(16) // next apply: both accumulators empty again
	fmt.Println("after Begin:", len(a.Touched()), len(a.Seeds()))
	// Output:
	// touched: [{3 true}]
	// seeds:   [7]
	// after Begin: 0 0
}

// ExampleVarSet shows the epoch-marked dense set underlying ScopeArena.
func ExampleVarSet() {
	var s fixpoint.VarSet
	s.Begin(8)
	fmt.Println(s.Add(5), s.Add(5), s.Has(5))
	s.Begin(8) // new generation, O(1)
	fmt.Println(s.Has(5))
	// Output:
	// true false true
	// false
}
