package fixpoint

import (
	"fmt"
	"math/rand"
)

// This file provides randomized checkers for the paper's condition (C2):
// the batch algorithm must be *contracting* (updates move values downward
// in ≼) and *monotonic* (f_x is order-preserving in its inputs). Tests use
// them to certify each instance before relying on Theorem 3; they are also
// handy while developing a new instance. CheckOrder, last, certifies a
// state rather than an instance: the answer and the order <_C that weak
// deducibility rests on.

// CheckContracting runs the batch fixpoint and verifies that every value
// change moved downward: newv ≼ oldv at each write. It returns false on
// the first violation.
func CheckContracting[V any](inst Instance[V]) bool {
	n := inst.NumVars()
	val := make([]V, n)
	for i := 0; i < n; i++ {
		val[i] = inst.Bottom(Var(i))
	}
	ok := true
	get := func(y Var) V { return val[y] }
	wl := newFifo(n)
	recompute := func(x Var) bool {
		newv := inst.Update(x, get)
		if inst.Equal(newv, val[x]) {
			return false
		}
		if inst.Less(val[x], newv) {
			ok = false // moved upward: not contracting
		}
		val[x] = newv
		return true
	}
	inst.Seeds(func(x Var) {
		recompute(x)
		wl.AddOrAdjust(x)
	})
	for ok {
		x, popped := wl.Pop()
		if !popped {
			break
		}
		inst.Dependents(x, func(z Var) {
			if recompute(z) {
				wl.AddOrAdjust(z)
			}
		})
	}
	return ok
}

// CheckMonotonic samples random feasible input assignments for random
// variables and verifies that lowering any single input never raises
// f_x's output. The check is probabilistic: it samples `samples` pairs;
// inputs are drawn between the instance's final and initial values by
// interpolating over an already-computed state.
//
// It requires a completed engine run to know the value range; pass its
// state. It returns false on the first violation found.
func CheckMonotonic[V any](inst Instance[V], st *State[V], rng *rand.Rand, samples int) bool {
	n := inst.NumVars()
	if n == 0 {
		return true
	}
	for s := 0; s < samples; s++ {
		x := Var(rng.Intn(n))
		// Assignment A: each input at bottom or final, at random.
		// Assignment B: like A but with one random input lowered to final
		// where A had bottom. Monotonicity demands f(B) ≼ f(A).
		var inputs []Var
		inst.Inputs(x, func(y Var) { inputs = append(inputs, y) })
		if len(inputs) == 0 {
			continue
		}
		hi := make(map[Var]bool, len(inputs))
		for _, y := range inputs {
			hi[y] = rng.Intn(2) == 0
		}
		lowered := inputs[rng.Intn(len(inputs))]
		if !hi[lowered] {
			continue // already low in A; pick cheaply and move on
		}
		getA := func(y Var) V {
			if hi[y] {
				return inst.Bottom(y)
			}
			return st.Val[y]
		}
		getB := func(y Var) V {
			if y == lowered {
				return st.Val[y]
			}
			return getA(y)
		}
		fa := inst.Update(x, getA)
		fb := inst.Update(x, getB)
		if inst.Less(fa, fb) { // lowering an input raised the output
			return false
		}
	}
	return true
}

// CheckRelaxerConsistency verifies, by exhaustive evaluation over the
// current state, that a Relaxer instance's per-edge candidates agree with
// its Update function: for every variable, the meet of Bottom and the
// candidates emitted *to* it equals f_x on current values. It returns
// false on the first mismatch.
func CheckRelaxerConsistency[V any](inst Instance[V], st *State[V]) bool {
	rx, okR := inst.(Relaxer[V])
	if !okR {
		return true
	}
	n := inst.NumVars()
	meet := make([]V, n)
	for i := 0; i < n; i++ {
		meet[i] = inst.Bottom(Var(i))
	}
	for x := 0; x < n; x++ {
		rx.RelaxOut(Var(x), st.Val[x], func(z Var, cand V) {
			if inst.Less(cand, meet[z]) {
				meet[z] = cand
			}
		})
	}
	get := func(y Var) V { return st.Val[y] }
	for x := 0; x < n; x++ {
		want := inst.Update(Var(x), get)
		if !inst.Equal(meet[x], want) {
			return false
		}
	}
	return true
}

// CheckOrder certifies st as a state the engine's runs leave for inst,
// without running anything: the values are the batch fixpoint and the
// stamps an order <_C the next incremental run's h can rely on (weak
// deducibility, §4). For every variable x it checks that
//
//  1. Val[x] is a fixpoint: f_x over the current values gives Val[x];
//  2. Val[x] is well-founded: unless it is Bottom(x), f_x gives Val[x]
//     also when each input stamped at or after x reads its Bottom — x's
//     value is derived from inputs determined before it, as h assumes
//     when it reads a later input as its initial value;
//  3. TS[x] is at most the clock, so the next stamp comes after it.
//
// Complete for a contracting, monotonic instance: the batch run's state,
// and every state the incremental runs leave, passes (the run stamps a
// variable when it takes the value its earlier-stamped inputs give it,
// and h keeps a revised variable's stamp). Sound: by induction along the
// stamps, clause 2 and monotonicity put every value at or above the
// greatest fixpoint below Bottom — the batch answer — and clause 1 makes
// it a fixpoint, so it is that answer. A fixpoint below it (a too-low
// SSSP cycle, two CC components under one label) fails clause 2 at its
// earliest-stamped variable. It costs two evaluations of every f_x, with
// the readers built once a call, and returns an error naming the first
// variable that fails.
func CheckOrder[V any](inst Instance[V], st *State[V]) error {
	n := inst.NumVars()
	if len(st.Val) != n || len(st.TS) != n {
		return fmt.Errorf("fixpoint: state of %d/%d variables for an instance with %d", len(st.Val), len(st.TS), n)
	}
	val, ts := st.Val, st.TS
	var at int64 // the stamp of the variable being checked
	current := func(y Var) V { return val[y] }
	earlier := func(y Var) V {
		if ts[y] < at {
			return val[y]
		}
		return inst.Bottom(y)
	}
	for x := Var(0); int(x) < n; x++ {
		v := val[x]
		at = ts[x]
		switch {
		case ts[x] > st.clock:
			return fmt.Errorf("fixpoint: variable %d stamped %d, after the clock %d", x, st.TS[x], st.clock)
		case !inst.Equal(inst.Update(x, current), v):
			return fmt.Errorf("fixpoint: variable %d = %v is not a fixpoint: its inputs give %v", x, v, inst.Update(x, current))
		case !inst.Equal(v, inst.Bottom(x)) && !inst.Equal(inst.Update(x, earlier), v):
			return fmt.Errorf("fixpoint: variable %d = %v (stamp %d) is not well-founded: its inputs stamped before it give %v",
				x, v, st.TS[x], inst.Update(x, earlier))
		}
	}
	return nil
}
