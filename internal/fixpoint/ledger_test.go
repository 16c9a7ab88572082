package fixpoint

import (
	"math/rand"
	"reflect"
	"testing"
)

// OutDegree makes the test instances degree-aware (fixpoint.OutDegreer),
// so the ledger's ‖AFF‖ accounting is exercised on every engine the tests
// build. pushMinPlus inherits it by embedding.
func (m *minPlus) OutDegree(x Var) int64 { return int64(len(m.out[x])) }

func (m *minLabel) OutDegree(x Var) int64 { return int64(len(m.adj[x])) }

// affSet reads the engine's tracker back out: the exact AFF membership
// of the most recent incremental run and the set of variables written
// during it (a superset of CHANGED — transient writes that settle back are
// marked but not charged). White-box — the marks are the accounting's
// source of truth, so comparing the counters against the mark sets closes
// the loop.
func affSet[V any](e *Engine[V]) (aff, written map[Var]bool) {
	aff, written = map[Var]bool{}, map[Var]bool{}
	for x, m := range e.led.mark {
		if m>>runShift != e.led.run {
			continue
		}
		if m&inAff != 0 {
			aff[Var(x)] = true
		}
		if m&inWritten != 0 {
			written[Var(x)] = true
		}
	}
	return aff, written
}

// TestLedgerPaperExample anchors the ledger on the worked example of the
// paper (Fig. 2/3, Example 4): delete (5,6), insert (5,3). The affected
// area must contain H⁰ = {3, 6, 7} plus everything that changed, and the
// counters must equal the mark sets exactly.
func TestLedgerPaperExample(t *testing.T) {
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()
	if led := e.State().Stats.Ledger; led.Runs != 0 || led.Aff != 0 || led.Changed != 0 {
		t.Fatalf("batch run charged the incremental ledger: %+v", led)
	}
	pre := append([]int64(nil), e.State().Val...)

	m.delEdge(5, 6)
	m.addEdge(5, 3, 1)
	before := e.State().Stats
	e.IncrementalRun([]Var{6, 3})
	led := e.State().Stats.Sub(before).Ledger

	if led.Runs != 1 || led.Touched != 2 {
		t.Fatalf("runs/touched: %+v", led)
	}
	aff, _ := affSet(e)
	if int64(len(aff)) != led.Aff {
		t.Fatalf("Aff %d != mark set %d", led.Aff, len(aff))
	}
	var wantEdges int64
	for x := range aff {
		wantEdges += int64(len(m.out[x]))
	}
	if led.AffEdges != wantEdges {
		t.Fatalf("AffEdges %d, want %d", led.AffEdges, wantEdges)
	}
	// CHANGED is exactly the externally visible diff, and every change is
	// inside AFF; H⁰ ⊆ AFF.
	diffs := int64(0)
	for x, v := range e.State().Val {
		if v != pre[x] {
			diffs++
			if !aff[Var(x)] {
				t.Fatalf("var %d changed outside AFF", x)
			}
		}
	}
	if led.Changed != diffs {
		t.Fatalf("Changed %d != visible diff %d", led.Changed, diffs)
	}
	for _, x := range []Var{3, 6, 7} {
		if !aff[x] {
			t.Fatalf("H⁰ member %d not in AFF", x)
		}
	}
	if led.Rounds < 1 {
		t.Fatalf("Rounds = %d, want >= 1", led.Rounds)
	}
	if led.RecomputeEst != int64(m.NumVars()) {
		t.Fatalf("RecomputeEst = %d, want %d", led.RecomputeEst, m.NumVars())
	}
	if w := led.Work(); w != led.Touched+led.Aff+led.AffEdges {
		t.Fatalf("Work = %d", w)
	}
}

// applyRandomDelta mutates the graph with nUpd random edge insertions and
// deletions and returns the touched heads.
func applyRandomDelta(rng *rand.Rand, n, nUpd int, g *minPlus) []Var {
	var touched []Var
	for i := 0; i < nUpd; i++ {
		u, v := Var(rng.Intn(n)), Var(rng.Intn(n))
		if u == v {
			continue
		}
		w := int64(rng.Intn(20) + 1)
		has := false
		for _, a := range g.out[u] {
			if a.to == v {
				has = true
				break
			}
		}
		if has {
			g.delEdge(u, v)
		} else {
			g.addEdge(u, v, w)
		}
		touched = append(touched, v)
	}
	return touched
}

// TestLedgerDifferentialRandom is the engine-level differential test:
// across random graphs, update streams, push/pull propagation and both
// policies, the ledger's counters must equal the instrumented mark sets,
// and every variable whose value changed must be inside AFF.
func TestLedgerDifferentialRandom(t *testing.T) {
	const n = 40
	type variant struct {
		name   string
		policy Policy
		push   bool
	}
	for _, vt := range []variant{
		{"pull-priority", PriorityOrder, false},
		{"pull-fifo", FIFOOrder, false},
		{"push-priority", PriorityOrder, true},
		{"push-fifo", FIFOOrder, true},
	} {
		t.Run(vt.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				r := rand.New(rand.NewSource(seed))
				m := newMinPlus(n, 0)
				for i := 0; i < 130; i++ {
					u, v := Var(r.Intn(n)), Var(r.Intn(n))
					if u != v {
						m.addEdge(u, v, int64(r.Intn(20)+1))
					}
				}
				var e *Engine[int64]
				if vt.push {
					e = New[int64](pushMinPlus{m}, vt.policy)
				} else {
					e = New[int64](m, vt.policy)
				}
				e.Run()
				rng := rand.New(rand.NewSource(seed + 500))
				for round := 0; round < 6; round++ {
					pre := append([]int64(nil), e.State().Val...)
					touched := applyRandomDelta(rng, n, 6, m)
					before := e.State().Stats
					e.IncrementalRun(touched)
					led := e.State().Stats.Sub(before).Ledger

					aff, written := affSet(e)
					if int64(len(aff)) != led.Aff {
						t.Fatalf("seed %d round %d: Aff %d vs mark set %d",
							seed, round, led.Aff, len(aff))
					}
					var wantEdges int64
					for x := range aff {
						wantEdges += int64(len(m.out[x]))
					}
					if led.AffEdges != wantEdges {
						t.Fatalf("seed %d round %d: AffEdges %d, want %d", seed, round, led.AffEdges, wantEdges)
					}
					diffs := int64(0)
					for x, v := range e.State().Val {
						if v != pre[x] {
							diffs++
							if !aff[Var(x)] {
								t.Fatalf("seed %d round %d: var %d changed outside AFF", seed, round, x)
							}
							if !written[Var(x)] {
								t.Fatalf("seed %d round %d: var %d changed without a recorded write", seed, round, x)
							}
						}
					}
					if led.Changed != diffs {
						t.Fatalf("seed %d round %d: Changed %d != visible diff %d", seed, round, led.Changed, diffs)
					}
					if led.Changed > int64(len(written)) {
						t.Fatalf("seed %d round %d: Changed %d exceeds written set %d", seed, round, led.Changed, len(written))
					}
					if !e.Fixpoint() {
						t.Fatalf("seed %d round %d: not a fixpoint", seed, round)
					}
				}
			}
		})
	}
}

// TestLedgerZeroAlloc extends the nil-tracer guarantee to the ledger: the
// accounting must add zero allocations to the no-audit engine path, for
// empty, push-seed, and touched incremental runs alike.
func TestLedgerZeroAlloc(t *testing.T) {
	m := paperGraph()
	e := New[int64](m, PriorityOrder)
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		e.IncrementalRunDelta(nil, nil)
	}); n != 0 {
		t.Errorf("empty incremental run: %v allocs, want 0", n)
	}
	seeds := []Var{2}
	if n := testing.AllocsPerRun(100, func() {
		e.IncrementalRunDelta(nil, seeds)
	}); n != 0 {
		t.Errorf("push-seed incremental run: %v allocs, want 0", n)
	}
}

// TestWorkLedgerAlgebra checks the Sub/Add snapshot algebra and the
// derived ratios the serve layer publishes.
func TestWorkLedgerAlgebra(t *testing.T) {
	a := WorkLedger{Runs: 3, Delta: 10, Touched: 12, Seeds: 2, Changed: 20,
		Aff: 30, AffEdges: 90, Rounds: 9, RecomputeEst: 1000}
	b := WorkLedger{Runs: 1, Delta: 4, Touched: 5, Seeds: 1, Changed: 8,
		Aff: 12, AffEdges: 40, Rounds: 4, RecomputeEst: 900}
	d := a.Sub(b)
	if d.Runs != 2 || d.Delta != 6 || d.Changed != 12 || d.AffEdges != 50 {
		t.Fatalf("Sub: %+v", d)
	}
	if d.RecomputeEst != 1000 {
		t.Fatalf("Sub must keep the newer RecomputeEst: %+v", d)
	}
	if got := b.Add(d); got != a {
		t.Fatalf("Add(Sub) round-trip: %+v != %+v", got, a)
	}
	if w := a.Work(); w != 12+30+90 {
		t.Fatalf("Work = %d", w)
	}
	if r := a.BoundedRatio(); r != float64(132)/10 {
		t.Fatalf("BoundedRatio = %v", r)
	}
	if r := a.RecomputeRatio(); r != float64(132)/1000 {
		t.Fatalf("RecomputeRatio = %v", r)
	}
	var zero WorkLedger
	if zero.BoundedRatio() != 0 || zero.RecomputeRatio() != 0 {
		t.Fatal("zero ledger ratios must be 0, not NaN")
	}
	p := a.Portable()
	if p.Rounds != 0 || p.Aff != a.Aff {
		t.Fatalf("Portable: %+v", p)
	}
	if !reflect.DeepEqual(a.Portable(), a.Portable()) {
		t.Fatal("Portable not deterministic")
	}
}

// TestTracker pins the contracts every ledger-reporting maintainer gets
// from the one Tracker: nothing recorded before the first Begin, first-write
// capture, a transient write that reverts is written but not CHANGED (and
// one written again after it is settled once, from its run-start value), Aff
// reports first entries only, Written is stable until the next Begin, and
// none of it allocates once sized.
func TestTracker(t *testing.T) {
	val := []int64{10, 11, 12, 13, 14, 15}
	var tr Tracker[int64]
	tr.Size(len(val))
	write := func(x int32, v int64) {
		tr.Write(x, val[x])
		val[x] = v
	}
	settle := func() (changed int64, olds map[int32]int64) {
		olds = map[int32]int64{}
		changed = tr.Settle(func(x int32, old int64) bool {
			olds[x] = old
			return val[x] != old
		})
		return changed, olds
	}

	// A batch run writes before any Begin: nothing is recorded.
	write(0, 5)
	if w := tr.Written(); w == nil || len(w) != 0 {
		t.Fatalf("before Begin: Written = %v, want empty and non-nil", w)
	}
	if tr.Aff(0) {
		t.Fatal("before Begin: Aff reported a first entry")
	}

	tr.Begin()
	write(1, 20) // changes
	write(2, 99) // transient: written twice, back to its run-start value
	write(2, 12)
	write(1, 21) // second write of 1: the first write's old value stays
	changed, olds := settle()
	if changed != 1 || olds[1] != 11 || olds[2] != 12 || len(olds) != 2 {
		t.Fatalf("Settle: changed %d, run-start values %v; want 1 and {1:11, 2:12}", changed, olds)
	}
	if w := tr.Written(); len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("Written = %v, want [1 2] in first-write order", w)
	}
	if !tr.Aff(3) || tr.Aff(3) || !tr.Aff(1) {
		t.Fatal("Aff: want true on a first entry and false on the second")
	}

	// Written stays what it was until the next Begin, while the run in
	// progress goes on.
	held := tr.Written()
	write(5, 50)
	if changed, olds := settle(); changed != 2 || olds[5] != 15 {
		t.Fatalf("run goes on: changed %d, run-start values %v", changed, olds)
	}
	if len(held) != 2 || held[0] != 1 || held[1] != 2 || len(tr.Written()) != 3 {
		t.Fatalf("held %v, Written %v", held, tr.Written())
	}

	tr.Begin()
	if len(tr.Written()) != 0 || !tr.Aff(3) {
		t.Fatal("Begin did not empty the written list and the affected set")
	}
	write(4, 40)
	if changed, olds := settle(); changed != 1 || olds[4] != 14 || len(olds) != 1 {
		t.Fatalf("second run: changed %d, run-start values %v", changed, olds)
	}

	// Written, written back and written again in one run: listed and
	// settled once, with the run-start value, not the one the third write
	// overwrote.
	tr.Begin()
	write(3, 30)
	write(3, 13)
	write(3, 31)
	if changed, olds := settle(); changed != 1 || olds[3] != 13 || len(olds) != 1 || len(tr.Written()) != 1 {
		t.Fatalf("rewritten: changed %d, run-start values %v, Written %v", changed, olds, tr.Written())
	}

	if n := testing.AllocsPerRun(100, func() {
		tr.Begin()
		for x := int32(0); x < int32(len(val)); x++ {
			tr.Aff(x)
			tr.Write(x, val[x])
		}
		tr.Settle(func(x int32, old int64) bool { return val[x] != old })
	}); n != 0 {
		t.Errorf("a full run over a sized tracker: %v allocs, want 0", n)
	}
}

// TestTrackerRunWrap: the run after the last a mark can number wraps to
// run 1, whose number an old mark may carry; Begin clears the marks there,
// so no variable of an earlier run reads as affected or written.
func TestTrackerRunWrap(t *testing.T) {
	var tr Tracker[int64]
	tr.Size(3)
	tr.Begin() // run 1: variable 0 affected and written
	tr.Aff(0)
	tr.Write(0, 7)
	tr.run = lastRun
	tr.Aff(1)
	tr.Begin()
	if tr.run != 1 {
		t.Fatalf("the run after %d is %d, want 1", lastRun, tr.run)
	}
	if !tr.Aff(0) || !tr.Aff(1) {
		t.Fatal("after the wrap a variable of an earlier run read as affected")
	}
	tr.Write(0, 8)
	if w := tr.Written(); len(w) != 1 || w[0] != 0 {
		t.Fatalf("after the wrap Written = %v, want [0]", w)
	}
}
