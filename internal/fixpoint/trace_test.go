package fixpoint

import (
	"math/rand"
	"reflect"
	"testing"
)

// recTracer records every hook invocation for sequence and counter
// assertions.
type recTracer struct {
	order  []string
	begin  [2]int   // touched, pushSeeds
	scope  [3]int64 // hPops, hResets, scopeSize
	rounds [][5]int64
	end    [2]int64 // pops, changes
}

func (r *recTracer) BeginRun(touched, pushSeeds int) {
	r.order = append(r.order, "begin")
	r.begin = [2]int{touched, pushSeeds}
}
func (r *recTracer) ScopeDone(hPops, hResets, scopeSize int64) {
	r.order = append(r.order, "scope")
	r.scope = [3]int64{hPops, hResets, scopeSize}
}
func (r *recTracer) Round(round int, frontier, pops, changes, affGrowth int64) {
	r.order = append(r.order, "round")
	r.rounds = append(r.rounds, [5]int64{int64(round), frontier, pops, changes, affGrowth})
}
func (r *recTracer) EndRun(pops, changes int64) {
	r.order = append(r.order, "end")
	r.end = [2]int64{pops, changes}
}

func TestTracerObservesIncrementalRun(t *testing.T) {
	// Replay the paper's Example 4 with a recording tracer and check that
	// the spans carry the run's structure: the known |H⁰|, rounds whose
	// counters sum to the resume totals, and the same fixpoint as the
	// untraced path.
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()
	m.delEdge(5, 6)
	m.addEdge(5, 3, 1)

	rec := &recTracer{}
	e.SetTracer(rec)
	e.IncrementalRun([]Var{6, 3})

	want := []int64{0, 4, 1, 3, 5, 2, 9, 5} // Fig. 3(a), column G ⊕ ΔG
	if !reflect.DeepEqual(e.State().Val, want) {
		t.Fatalf("traced incremental values %v, want %v", e.State().Val, want)
	}

	if len(rec.order) < 3 || rec.order[0] != "begin" || rec.order[1] != "scope" ||
		rec.order[len(rec.order)-1] != "end" {
		t.Fatalf("hook order %v, want begin, scope, round*, end", rec.order)
	}
	for _, o := range rec.order[2 : len(rec.order)-1] {
		if o != "round" {
			t.Fatalf("hook order %v, want only rounds between scope and end", rec.order)
		}
	}
	if rec.begin != [2]int{2, 0} {
		t.Errorf("BeginRun(%v), want (2, 0)", rec.begin)
	}
	if rec.scope[2] != 3 {
		t.Errorf("ScopeDone scopeSize = %d, want |H⁰| = 3 (Example 4)", rec.scope[2])
	}
	if len(rec.rounds) == 0 {
		t.Fatal("no rounds reported")
	}
	var pops, changes int64
	for i, r := range rec.rounds {
		if r[0] != int64(i+1) {
			t.Errorf("round %d numbered %d", i+1, r[0])
		}
		if r[1] <= 0 {
			t.Errorf("round %d frontier = %d, want > 0", i+1, r[1])
		}
		pops += r[2]
		changes += r[3]
	}
	if last := rec.rounds[len(rec.rounds)-1]; last[4] != 0 {
		t.Errorf("final round affGrowth = %d, want 0 (drain ends on empty scope)", last[4])
	}
	// All pops happen inside rounds; changes also accrue in the H⁰
	// re-evaluation that precedes round 1, so the round sum is a lower
	// bound there.
	if pops != rec.end[0] {
		t.Errorf("round pops sum %d != EndRun pops %d", pops, rec.end[0])
	}
	if changes > rec.end[1] {
		t.Errorf("round changes sum %d > EndRun changes %d", changes, rec.end[1])
	}
	if !e.Fixpoint() {
		t.Fatal("traced incremental result is not a fixpoint")
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	// A tracer only observes the drain's frontier rounds: the fixpoint
	// reached and every counter must be identical to an untraced run's on
	// random graphs and update batches.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		mT, mU := newMinPlus(n, 0), newMinPlus(n, 0)
		type edge struct{ u, v Var }
		present := map[edge]bool{}
		add := func(u, v Var, w int64) {
			mT.addEdge(u, v, w)
			mU.addEdge(u, v, w)
		}
		del := func(u, v Var) {
			mT.delEdge(u, v)
			mU.delEdge(u, v)
		}
		for i := 0; i < 120; i++ {
			u, v := Var(rng.Intn(n)), Var(rng.Intn(n))
			if u == v || present[edge{u, v}] {
				continue
			}
			present[edge{u, v}] = true
			add(u, v, int64(rng.Intn(20)+1))
		}
		eT := New[int64](mT, PriorityOrder)
		eT.SetTracer(&recTracer{})
		eT.Run()
		eU := New[int64](mU, PriorityOrder)
		eU.Run()

		touched := map[Var]bool{}
		for i := 0; i < 12; i++ {
			u, v := Var(rng.Intn(n)), Var(rng.Intn(n))
			if u == v {
				continue
			}
			if present[edge{u, v}] {
				delete(present, edge{u, v})
				del(u, v)
			} else {
				present[edge{u, v}] = true
				add(u, v, int64(rng.Intn(20)+1))
			}
			touched[v] = true
		}
		var tl []Var
		for x := range touched {
			tl = append(tl, x)
		}
		eT.IncrementalRun(tl)
		eU.IncrementalRun(tl)
		if !reflect.DeepEqual(eT.State().Val, eU.State().Val) {
			t.Fatalf("seed %d: traced values %v != untraced %v", seed, eT.State().Val, eU.State().Val)
		}
		sT, sU := eT.State().Stats, eU.State().Stats
		sT.HSeconds, sT.ResumeSeconds, sU.HSeconds, sU.ResumeSeconds = 0, 0, 0, 0
		if sT != sU {
			t.Fatalf("seed %d: traced counters %+v != untraced %+v", seed, sT, sU)
		}
	}
}

func TestNilTracerZeroAlloc(t *testing.T) {
	// The acceptance bar for the tracer hook: with no tracer installed,
	// an incremental run performs zero heap allocations. All propagation
	// closures are hoisted into Engine fields, so the only per-run
	// allocation is the returned H⁰ slice — absent for an empty touched
	// set — and the push-seed path exercises the full drain.
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		e.IncrementalRunDelta(nil, nil)
	}); n != 0 {
		t.Errorf("empty incremental run: %v allocs, want 0", n)
	}

	// Push seeds re-propagate from an untouched variable through drain's
	// relax path; at the fixpoint no candidate improves, but the pop and
	// emit machinery runs.
	seeds := []Var{2}
	if n := testing.AllocsPerRun(100, func() {
		e.IncrementalRunDelta(nil, seeds)
	}); n != 0 {
		t.Errorf("push-seed incremental run: %v allocs, want 0", n)
	}
}
