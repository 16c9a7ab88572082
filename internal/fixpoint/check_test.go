package fixpoint

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCheckContractingMinPlus(t *testing.T) {
	m := paperGraph()
	if !CheckContracting[int64](m) {
		t.Fatal("min-plus instance reported non-contracting")
	}
}

// antiMinPlus breaks contraction by computing a max instead of a min.
type antiMinPlus struct{ *minPlus }

func (m antiMinPlus) Update(x Var, get func(Var) int64) int64 {
	if x == m.src {
		return 5 // rises above Bottom(src) = 0
	}
	return m.minPlus.Update(x, get)
}

func TestCheckContractingDetectsViolation(t *testing.T) {
	if CheckContracting[int64](antiMinPlus{paperGraph()}) {
		t.Fatal("non-contracting instance passed")
	}
}

func TestCheckMonotonicMinPlus(t *testing.T) {
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()
	if !CheckMonotonic[int64](m, e.State(), rand.New(rand.NewSource(1)), 500) {
		t.Fatal("min-plus instance reported non-monotonic")
	}
}

// antiMono inverts the effect of one input: lowering it raises the output.
type antiMono struct{ *minPlus }

func (m antiMono) Update(x Var, get func(Var) int64) int64 {
	if x == m.src {
		return 0
	}
	worst := int64(0)
	for _, a := range m.in[x] {
		if d := get(a.to); d < inf && inf-d > worst {
			worst = inf - d
		}
	}
	if worst == 0 {
		return inf
	}
	return worst
}

func TestCheckMonotonicDetectsViolation(t *testing.T) {
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()
	anti := antiMono{m}
	if CheckMonotonic[int64](anti, e.State(), rand.New(rand.NewSource(2)), 2000) {
		t.Fatal("non-monotonic instance passed")
	}
}

func TestCheckRelaxerConsistency(t *testing.T) {
	m := paperGraph()
	p := pushMinPlus{m}
	e := New[int64](p, PriorityOrder)
	e.Run()
	if !CheckRelaxerConsistency[int64](p, e.State()) {
		t.Fatal("consistent relaxer reported inconsistent")
	}
	// A non-relaxer instance passes trivially.
	if !CheckRelaxerConsistency[int64](m, e.State()) {
		t.Fatal("non-relaxer should pass")
	}
}

// badRelaxer emits wrong candidates.
type badRelaxer struct{ *minPlus }

func (m badRelaxer) RelaxOut(x Var, xv int64, emit func(Var, int64)) {
	if xv >= inf {
		return
	}
	for _, a := range m.out[x] {
		emit(a.to, xv+a.w+1) // off by one
	}
}

func TestCheckRelaxerConsistencyDetectsMismatch(t *testing.T) {
	m := paperGraph()
	good := pushMinPlus{m}
	e := New[int64](good, PriorityOrder)
	e.Run()
	if CheckRelaxerConsistency[int64](badRelaxer{m}, e.State()) {
		t.Fatal("inconsistent relaxer passed")
	}
}

// mutate returns a copy of st with its values, stamps and clock passed
// through edit, for CheckOrder to judge.
func mutate[V any](st *State[V], edit func(val []V, ts []int64, clock *int64)) *State[V] {
	val, ts, clock := slices.Clone(st.Val), slices.Clone(st.TS), st.Clock()
	edit(val, ts, &clock)
	return &State[V]{Val: val, TS: ts, clock: clock}
}

// zeroCycle is 0 →5→ 1 ⇄0⇄ 2 →1→ 3: nodes 1 and 2 sit on a zero-weight
// cycle at distance 5.
func zeroCycle() *minPlus {
	m := newMinPlus(4, 0)
	m.addEdge(0, 1, 5)
	m.addEdge(1, 2, 0)
	m.addEdge(2, 1, 0)
	m.addEdge(2, 3, 1)
	return m
}

// TestCheckOrderMutations: CheckOrder accepts the batch run's state and
// rejects each way a state can be wrong while looking plausible — a value
// 1 too low, a zero-weight cycle held below its distance with every edge
// tight, two components under one label (each a fixpoint), two stamps
// swapped, a clock below a stamp (the values all right), and h's
// revisions stamped afresh after its loop, as before the engine kept
// their stamps.
func TestCheckOrderMutations(t *testing.T) {
	run := func(inst Instance[int64], policy Policy) *State[int64] {
		e := New[int64](inst, policy)
		e.Run()
		if err := CheckOrder(inst, e.State()); err != nil {
			t.Fatalf("the batch run's state: %v", err)
		}
		return e.State()
	}
	paper := paperGraph()
	pst := run(paper, PriorityOrder) // 2 = 1 from 0, 5 = 2 from 2 alone
	cyc := zeroCycle()
	cst := run(cyc, PriorityOrder)
	comps := &minLabel{adj: [][]Var{{1}, {0}, {3}, {2}}}
	lst := run(comps, FIFOOrder)

	// hRestamped is TestHRevisionKeepsAnchorOrder's first round, after
	// which 4 = 15 rests on 2 and 3 alone, with the three variables h
	// raised (1, 2, 3) stamped afresh in revision order.
	h := newMinPlus(5, 0)
	h.addEdge(0, 1, 5)
	h.addEdge(1, 2, 6)
	h.addEdge(1, 3, 9)
	h.addEdge(3, 4, 1)
	he := New[int64](h, PriorityOrder)
	he.Run()
	h.delEdge(0, 1)
	h.addEdge(0, 1, 6)
	h.addEdge(2, 4, 3)
	he.IncrementalRunDelta([]Touched{{X: 1, MaybeInfeasible: true}}, []Var{0, 2})
	if err := CheckOrder[int64](h, he.State()); err != nil {
		t.Fatalf("the incremental run's state: %v", err)
	}

	const fix, founded, clocked = "not a fixpoint", "not well-founded", "after the clock"
	for _, tc := range []struct {
		name, want string // want: the clause that fails
		inst       Instance[int64]
		st         *State[int64]
	}{
		{"value 1 too low", fix, paper, mutate(pst, func(val []int64, _ []int64, _ *int64) { val[5]-- })},
		{"zero-weight cycle below its distance", founded, cyc, mutate(cst, func(val []int64, _ []int64, _ *int64) {
			val[1], val[2], val[3] = 3, 3, 4
		})},
		{"two components under one label", founded, comps, mutate(lst, func(val []int64, _ []int64, _ *int64) { val[2], val[3] = 0, 0 })},
		{"two stamps swapped", founded, paper, mutate(pst, func(_ []int64, ts []int64, _ *int64) { ts[2], ts[5] = ts[5], ts[2] })},
		{"clock below a stamp", clocked, paper, mutate(pst, func(_ []int64, _ []int64, clock *int64) { *clock-- })},
		{"h's revisions restamped", founded, h, mutate(he.State(), func(_ []int64, ts []int64, clock *int64) {
			for _, x := range []Var{1, 2, 3} {
				*clock++
				ts[x] = *clock
			}
		})},
	} {
		if err := CheckOrder(tc.inst, tc.st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckOrder says %v of %v (stamps %v, clock %d), want %q", tc.name, err, tc.st.Val, tc.st.TS, tc.st.Clock(), tc.want)
		}
	}
}

// randomMinPlus draws n variables with m arcs of weight 0…9 — zero weights
// included, so zero-weight cycles occur — and reports the arcs drawn.
func randomMinPlus(rng *rand.Rand, n, m int) (*minPlus, map[[2]Var]bool) {
	g := newMinPlus(n, 0)
	arcs := map[[2]Var]bool{}
	for i := 0; i < m; i++ {
		u, v := Var(rng.Intn(n)), Var(rng.Intn(n))
		if u != v && !arcs[[2]Var{u, v}] {
			arcs[[2]Var{u, v}] = true
			g.addEdge(u, v, int64(rng.Intn(10)))
		}
	}
	return g, arcs
}

// TestCheckOrderProperty: on random min-plus instances, CheckOrder accepts
// the batch run's state and the state after each of several incremental
// runs over random batches — each also equal to a fresh batch run — and
// rejects that state with any one finite value lowered by 1.
func TestCheckOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		m, arcs := randomMinPlus(rng, n, 80)
		e := New[int64](m, PriorityOrder)
		e.Run()
		for round := 0; round < 4; round++ {
			if round > 0 {
				var touched []Var
				for i := 0; i < 8; i++ {
					u, v := Var(rng.Intn(n)), Var(rng.Intn(n))
					switch {
					case u == v:
						continue
					case arcs[[2]Var{u, v}]:
						delete(arcs, [2]Var{u, v})
						m.delEdge(u, v)
					default:
						arcs[[2]Var{u, v}] = true
						m.addEdge(u, v, int64(rng.Intn(10)))
					}
					if !slices.Contains(touched, v) {
						touched = append(touched, v)
					}
				}
				e.IncrementalRun(touched)
			}
			st := e.State()
			if err := CheckOrder[int64](m, st); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
			fresh := New[int64](m, PriorityOrder)
			fresh.Run()
			if !slices.Equal(st.Val, fresh.State().Val) {
				t.Logf("seed %d round %d: %v, want %v", seed, round, st.Val, fresh.State().Val)
				return false
			}
			x := Var(rng.Intn(n))
			if st.Val[x] >= inf {
				continue
			}
			low := mutate(st, func(val []int64, _ []int64, _ *int64) { val[x]-- })
			if CheckOrder[int64](m, low) == nil {
				t.Logf("seed %d round %d: accepted variable %d lowered to %d", seed, round, x, low.Val[x])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
