package fixpoint

import (
	"math"
	"testing"
)

func TestVarSet(t *testing.T) {
	var s VarSet
	s.Begin(4)
	if !s.Add(2) || s.Add(2) {
		t.Fatal("Add dedup broken")
	}
	if !s.Has(2) || s.Has(3) {
		t.Fatal("Has broken")
	}
	s.Begin(4) // new generation: previous marks invisible
	if s.Has(2) {
		t.Fatal("Begin did not clear")
	}
	if !s.Add(2) || !s.Add(3) {
		t.Fatal("a new generation refused a variable")
	}
}

// TestVarSetEpochWrap: the generation after epoch 2³² − 1 wraps to 0,
// where every mark would read as present; Begin clears the marks instead,
// so no member of an earlier generation survives and Add works on.
func TestVarSetEpochWrap(t *testing.T) {
	var s VarSet
	s.Begin(4)
	s.Add(0) // a member of generation 1, which the wrap meets again
	s.epoch = math.MaxUint32
	s.Add(1)
	s.Add(2)
	s.Begin(4)
	for x := Var(0); x < 4; x++ {
		if s.Has(x) {
			t.Fatalf("after the wrap (epoch %d) %d reads as present", s.epoch, x)
		}
	}
	if !s.Add(1) || s.Add(1) || !s.Has(1) || s.Has(2) {
		t.Fatal("Add after the wrap broken")
	}
	s.Begin(4)
	if s.Has(1) {
		t.Fatal("the generation after the wrap kept a member")
	}
}

func TestScopeArena(t *testing.T) {
	var a ScopeArena
	a.Begin(8)
	a.Touch(3, false)
	a.Touch(5, true)
	a.Touch(3, true) // sticky upgrade
	a.Touch(5, false)
	a.Seed(1)
	a.Seed(3) // a var may be both touched and seeded
	a.Seed(1)
	tch := a.Touched()
	if len(tch) != 2 || tch[0].X != 3 || tch[1].X != 5 {
		t.Fatalf("touched = %v", tch)
	}
	if !tch[0].MaybeInfeasible || !tch[1].MaybeInfeasible {
		t.Fatalf("sticky MaybeInfeasible broken: %v", tch)
	}
	if s := a.Seeds(); len(s) != 2 || s[0] != 1 || s[1] != 3 {
		t.Fatalf("seeds = %v", s)
	}
	a.Begin(8)
	if len(a.Touched()) != 0 || len(a.Seeds()) != 0 {
		t.Fatal("Begin did not reset accumulators")
	}
}

// TestScopeArenaZeroAlloc: after warm-up, building a scope of the same
// shape allocates nothing — the point of replacing per-apply maps.
func TestScopeArenaZeroAlloc(t *testing.T) {
	var a ScopeArena
	build := func() {
		a.Begin(64)
		for x := Var(0); x < 32; x++ {
			a.Touch(x, x%2 == 0)
			a.Seed(x)
		}
	}
	build() // warm up backing arrays
	if n := testing.AllocsPerRun(100, build); n != 0 {
		t.Errorf("scope build: %v allocs, want 0", n)
	}
}
