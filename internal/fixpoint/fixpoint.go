// Package fixpoint implements the paper's core contribution: the class Φ of
// fixpoint graph algorithms (§3) and their systematic incrementalization
// with relative boundedness guarantees (§4).
//
// A fixpoint algorithm A maintains one status variable per Var, updated by
// a per-variable update function f_x over an input set Y_x, driven by a
// step function that propagates changes through a scope (worklist) until no
// variable changes. When A is contracting and monotonic w.r.t. a partial
// order ≼ (condition C2), an incremental algorithm A_Δ is deduced by
// running the initial scope function h of Fig. 4 — which revises
// potentially infeasible variables in the order <_C derived from the batch
// run's timestamps — and then resuming A's own step function from the
// produced status D⁰ and scope H⁰ (Theorem 3).
//
// The Engine in this package is that machinery, generic over the value
// domain. SSSP, CC, and Sim instantiate it directly; DFS and LCC follow
// the same design with specialized code (as the paper does in §5).
package fixpoint

import (
	"fmt"
	"time"

	"incgraph/internal/pq"
)

// Var identifies a status variable in Ψ_A. Instances map graph nodes
// (SSSP, CC) or node pairs (Sim) to dense Var ids.
type Var int32

// Policy selects the step function's worklist order.
type Policy int

const (
	// FIFOOrder processes the scope first-in first-out (CC, Sim).
	FIFOOrder Policy = iota
	// PriorityOrder pops the variable with the ≼-least current value
	// first, generalizing Dijkstra's extraction order (SSSP).
	PriorityOrder
)

// Instance defines one fixpoint algorithm: its status variables, value
// domain with the partial order ≼, update functions and their input sets.
// Values move downward in ≼ during the run: final ≼ ... ≼ initial
// (equation (4) of the paper); Bottom is the ≼-greatest ("initial") value.
//
// An Instance is evaluated against the current state of its underlying
// graph: after the graph is updated by ΔG, the same Instance describes the
// fixpoint computation on G ⊕ ΔG.
type Instance[V any] interface {
	// NumVars returns |Ψ_A|; Vars are 0..NumVars()-1.
	NumVars() int
	// Bottom returns the initial value x⊥ of variable x.
	Bottom(x Var) V
	// Less reports a ≺ b, the strict partial order on the domain; smaller
	// is closer to the final value.
	Less(a, b V) bool
	// Equal reports value equality.
	Equal(a, b V) bool
	// Inputs calls yield for each variable in the input set Y_x.
	Inputs(x Var, yield func(Var))
	// Dependents calls yield for each variable z with x ∈ Y_z.
	Dependents(x Var, yield func(Var))
	// Update evaluates f_x(Y_x), reading input values through get.
	Update(x Var, get func(Var) V) V
	// Seeds calls yield for each variable in the initial scope H⁰ of a
	// batch run: the variables whose logical statements σ may be false
	// initially.
	Seeds(yield func(Var))
}

// Stats counts the data inspected by a run. Relative boundedness (§4) is a
// statement about these counters: for the incremental run they must be a
// function of |ΔG| and |AFF|, not of |G|.
type Stats struct {
	Reads     int64 `json:"reads"`      // status-variable reads by update functions
	Updates   int64 `json:"updates"`    // update-function invocations
	Changes   int64 `json:"changes"`    // value changes (writes)
	Pops      int64 `json:"pops"`       // scope extractions by the step function
	HPops     int64 `json:"h_pops"`     // queue extractions by the scope function h
	HResets   int64 `json:"h_resets"`   // variables revised to feasible values by h
	ScopeSize int64 `json:"scope_size"` // |H⁰| produced by h (incremental runs only)

	// HSeconds and ResumeSeconds accumulate wall time spent in the initial
	// scope function h and in the resumed step function, the split the
	// paper reports in Exp-2(2).
	HSeconds      float64 `json:"h_seconds"`
	ResumeSeconds float64 `json:"resume_seconds"`

	// Ledger is the boundedness work account of the incremental runs: the
	// |CHANGED|/|AFF|/‖AFF‖/rounds quantities of Theorem 3 (see
	// WorkLedger). It follows the same cumulative Sub/Add snapshot
	// discipline as the counters above.
	Ledger WorkLedger `json:"ledger"`
}

// Inspected returns the total number of variable inspections, the cost
// measure of the paper's boundedness analysis.
func (s Stats) Inspected() int64 { return s.Reads + s.Updates + s.Pops + s.HPops }

// ParStats is what is left of the retired parallel execution mode's
// counters: the frozen benchmark module (benchmark/wrappers.go,
// benchmark/bench_test.go) still names the type, and the next [benchmark]
// PR removes it. Nothing in this repository produces or reads one.
type ParStats struct{ Workers int }

// Tracer observes the phases of one incremental run. It is the engine's
// span hook: internal/trace implements it (structurally — the methods use
// only builtin types, so neither package imports the other) to record
// h-phase and resume spans plus per-round propagation events into a
// flight recorder. Traced and untraced runs take the same drain, which
// only skips the calls when the tracer is nil; an untraced run performs
// zero allocations (guarded by TestNilTracerZeroAlloc).
//
// All methods are called from the goroutine driving the engine, in the
// order BeginRun, ScopeDone, Round*, EndRun.
type Tracer interface {
	// BeginRun marks the start of IncrementalRunDelta with the sizes of
	// the touched set and the push-seed set.
	BeginRun(touched, pushSeeds int)
	// ScopeDone marks the end of the initial scope function h with the
	// run's h-counter deltas and |H⁰|.
	ScopeDone(hPops, hResets, scopeSize int64)
	// Round reports one completed propagation round of the resumed step
	// function: the frontier size at round start, pops and value changes
	// during the round, and the affected-area growth (variables newly
	// scoped for the next round).
	Round(round int, frontier, pops, changes, affGrowth int64)
	// EndRun marks the end of the resumed step function with the resume
	// phase's pop and change deltas.
	EndRun(pops, changes int64)
}

// Sub returns the counter-wise difference s − o, isolating the cost of
// the span between two snapshots of the same cumulative Stats (e.g. one
// Apply call). ScopeSize is not cumulative — it is the |H⁰| of the last
// run — so the newer snapshot's value is kept as-is.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:         s.Reads - o.Reads,
		Updates:       s.Updates - o.Updates,
		Changes:       s.Changes - o.Changes,
		Pops:          s.Pops - o.Pops,
		HPops:         s.HPops - o.HPops,
		HResets:       s.HResets - o.HResets,
		ScopeSize:     s.ScopeSize,
		HSeconds:      s.HSeconds - o.HSeconds,
		ResumeSeconds: s.ResumeSeconds - o.ResumeSeconds,
		Ledger:        s.Ledger.Sub(o.Ledger),
	}
}

// Add returns the counter-wise sum s + o, for aggregating per-run deltas
// into a running total. ScopeSize takes o's value — the most recent
// run's |H⁰| — so an accumulator always reports the latest scope.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:         s.Reads + o.Reads,
		Updates:       s.Updates + o.Updates,
		Changes:       s.Changes + o.Changes,
		Pops:          s.Pops + o.Pops,
		HPops:         s.HPops + o.HPops,
		HResets:       s.HResets + o.HResets,
		ScopeSize:     o.ScopeSize,
		HSeconds:      s.HSeconds + o.HSeconds,
		ResumeSeconds: s.ResumeSeconds + o.ResumeSeconds,
		Ledger:        s.Ledger.Add(o.Ledger),
	}
}

// State is the status D_A of a run: the current value and last-change
// timestamp of every status variable, plus the logical clock. Timestamps
// are the only auxiliary structure (weak deducibility, §4): they encode the
// order <_C in which final values were determined.
type State[V any] struct {
	Val   []V
	TS    []int64
	clock int64
	Stats Stats
}

// Relaxer is an optional Instance extension for update functions of meet
// form, f_x(Y) = ⊓_{y ∈ Y} contribution(y → x), as in SSSP and CC. When
// implemented, the step function propagates changes by pushing per-edge
// candidate values instead of fully re-evaluating each dependent —
// Dijkstra-style relaxation, avoiding the degree-squared cost of pull
// recomputation around hubs. RelaxOut must agree with Update: the meet of
// the emitted candidates over x's inputs, together with Bottom, is
// f_x(Y_x); tests check this consistency.
type Relaxer[V any] interface {
	// RelaxOut emits, for each dependent z of x, the candidate value that
	// x's current value xv contributes to z.
	RelaxOut(x Var, xv V, emit func(z Var, candidate V))
}

// UniformRelaxer is an optional refinement of Relaxer for instances whose
// relaxation emits the same candidate — x's own value — to every dependent
// (label propagation: CC's min-label flood). The drain then skips the
// per-edge emit closure entirely: it fetches the dependent row into a
// reused arena buffer and installs the one candidate along it, keeping
// the inner loop free of interface calls. DependentRow must visit
// exactly the variables RelaxOut would emit to, in the same order, so the
// two paths stay counter-for-counter identical.
type UniformRelaxer[V any] interface {
	Relaxer[V]
	// DependentRow appends x's dependents to buf and returns the extended
	// slice. The result may alias internal storage and is only valid until
	// the next engine step.
	DependentRow(x Var, buf []Var) []Var
}

// Engine couples an Instance with its State and implements both the batch
// step function and the deduced incremental algorithm. Worklists are
// allocated once and reused across runs, so incremental rounds cost
// O(|AFF|), not O(|Ψ|).
type Engine[V any] struct {
	inst    Instance[V]
	relaxer Relaxer[V]        // nil when the instance is not meet-form
	uniform UniformRelaxer[V] // nil unless the relaxer is label-propagating
	rowBuf  []Var             // uniform path's dependent-row arena
	policy  Policy
	st      *State[V]
	getFn   func(Var) V
	// emitFn and visitFn are the step function's propagation closures,
	// built once here: creating them per drain call would heap-allocate
	// (they escape through the Instance interface), breaking the
	// zero-allocation guarantee of small incremental runs.
	emitFn  func(Var, V)
	visitFn func(Var)
	// hGetFn and hEnqFn are the scope function's closures, hoisted for
	// the same reason; hx is the variable h is currently revising, a
	// field so the closures can share it without a per-call heap cell.
	hGetFn func(Var) V
	hEnqFn func(Var)
	hx     Var

	tracer Tracer // optional span hook; nil ⇒ no calls

	wl  worklist   // step-function scope
	hq  *pq.Heap   // h's queue, ordered by old timestamps (the order <_C)
	led Tracker[V] // AFF membership (which is H⁰'s dedup too) and first writes
	h0  []Var      // the last run's H⁰, whose room the next run reuses
	deg OutDegreer // instance's optional out-degree hook for ‖AFF‖
}

// New creates an engine for the instance with an empty (all-Bottom) state.
// The engine is single-writer: all methods must be called from one
// goroutine at a time.
func New[V any](inst Instance[V], policy Policy) *Engine[V] {
	n := inst.NumVars()
	e := &Engine[V]{inst: inst, policy: policy, st: &State[V]{Val: make([]V, n), TS: make([]int64, n)}}
	e.Reset()
	e.relaxer, _ = inst.(Relaxer[V])
	e.uniform, _ = inst.(UniformRelaxer[V])
	e.deg, _ = inst.(OutDegreer)
	e.getFn = func(x Var) V {
		e.st.Stats.Reads++
		return e.st.Val[x]
	}
	if policy == PriorityOrder {
		e.wl = priority{pq.New(n, func(a, b int32) bool {
			return e.inst.Less(e.st.Val[a], e.st.Val[b])
		})}
	} else {
		e.wl = newFifo(n)
	}
	e.hq = pq.New(n, func(a, b int32) bool {
		return e.st.TS[a] < e.st.TS[b]
	})
	e.led.Size(n)
	e.emitFn = func(z Var, cand V) {
		if e.install(z, cand) {
			e.wl.AddOrAdjust(z)
		}
	}
	e.visitFn = func(z Var) {
		if e.recompute(z) {
			e.wl.AddOrAdjust(z)
		}
	}
	// h evaluates f_x on the feasible input set Ȳ_x: inputs determined
	// after x in <_C are reset to their initial values (always feasible);
	// earlier inputs keep their current — already revised, hence feasible
	// — values. h writes no timestamps, so e.st.TS carries the previous
	// run's order while these closures read it.
	e.hGetFn = func(y Var) V {
		e.st.Stats.Reads++
		if e.st.TS[e.hx] < e.st.TS[y] {
			return e.inst.Bottom(y)
		}
		return e.st.Val[y]
	}
	e.hEnqFn = func(z Var) {
		if e.st.TS[e.hx] < e.st.TS[z] { // hx may be in C_z
			e.hq.AddOrAdjust(int32(z))
		}
	}
	return e
}

// SetTracer installs (or, with nil, removes) the span hook observing
// incremental runs. Call it from the goroutine that drives the engine.
func (e *Engine[V]) SetTracer(t Tracer) { e.tracer = t }

// State exposes the engine's status for inspection and for handing the
// fixpoint D^r to a later incremental run.
func (e *Engine[V]) State() *State[V] { return e.st }

// Clock returns the logical clock of the state — the timestamp of the
// youngest determination. Together with Val and TS it is the complete
// auxiliary state of the deduced incremental algorithm (weak
// deducibility, §4), which is exactly what a durability checkpoint must
// persist: the values are the answer, the timestamps are the order <_C
// the next incremental run's anchor analysis reads.
func (s *State[V]) Clock() int64 { return s.clock }

// Restore overwrites the engine's status with a previously exported one:
// per-variable values, their determination timestamps, and the logical
// clock. The instance's variable universe must match (the engine's graph
// must equal the one the state was exported from); the slices are copied.
// Counters are not restored — they describe the old process's work.
func (e *Engine[V]) Restore(vals []V, ts []int64, clock int64) error {
	n := e.inst.NumVars()
	if len(vals) != n || len(ts) != n {
		return fmt.Errorf("fixpoint: restore of %d/%d variables into instance with %d", len(vals), len(ts), n)
	}
	copy(e.st.Val, vals)
	copy(e.st.TS, ts)
	e.st.clock = clock
	return nil
}

// Value returns the current value of variable x.
func (e *Engine[V]) Value(x Var) V { return e.st.Val[x] }

// Written lists the variables the last incremental run wrote, each once:
// a superset of the entries of State().Val that changed, kept for the
// work ledger's settle sweep. It aliases internal state, is never nil,
// allocates nothing, and is valid until the next incremental run.
func (e *Engine[V]) Written() []int32 { return e.led.Written() }

// ledgerAff enters x into the current run's affected area and reports
// whether it was new there, in which case |AFF| grows by one and ‖AFF‖ by
// x's out-degree.
func (e *Engine[V]) ledgerAff(x Var) bool {
	if !e.led.Aff(int32(x)) {
		return false
	}
	e.st.Stats.Ledger.Aff++
	if e.deg != nil {
		e.st.Stats.Ledger.AffEdges += e.deg.OutDegree(x)
	}
	return true
}

// recompute applies f_x and installs the result; it reports whether the
// value changed.
func (e *Engine[V]) recompute(x Var) bool {
	e.st.Stats.Updates++
	newv := e.inst.Update(x, e.getFn)
	cur := e.st.Val[x]
	if e.inst.Equal(newv, cur) {
		return false
	}
	e.led.Write(int32(x), cur)
	e.st.Val[x] = newv
	e.st.clock++
	e.st.TS[x] = e.st.clock
	e.st.Stats.Changes++
	return true
}

// install writes a relaxed candidate if it improves on the current value.
func (e *Engine[V]) install(z Var, cand V) bool {
	e.st.Stats.Updates++
	cur := e.st.Val[z]
	if !e.inst.Less(cand, cur) {
		return false
	}
	e.led.Write(int32(z), cur)
	e.st.Val[z] = cand
	e.st.clock++
	e.st.TS[z] = e.st.clock
	e.st.Stats.Changes++
	return true
}

// Reset returns the status to New's in place — every variable Bottom,
// every timestamp and the clock 0, the ledger empty — for a rerun of Run.
func (e *Engine[V]) Reset() {
	for x := range e.st.Val {
		e.st.Val[x] = e.inst.Bottom(Var(x))
	}
	clear(e.st.TS)
	e.st.clock = 0
	e.led.Reset()
}

// Run executes the batch fixpoint algorithm from the initial status: it
// seeds the scope with the instance's Seeds and drives the step function
// until the scope empties (equation (1) of the paper).
func (e *Engine[V]) Run() {
	e.inst.Seeds(func(x Var) {
		e.recompute(x)
		e.wl.AddOrAdjust(x)
	})
	e.drain()
}

// drain is the step function f_A iterated to the fixpoint: it pops a
// variable from the scope and propagates its value to its dependents —
// along the dependent row for a label-propagating instance, by per-edge
// candidates for a meet-form one (the same pops and installs in the same
// order), by full re-evaluation otherwise — extending the scope with every
// dependent whose value changed. The variables in the scope when a round
// begins are its frontier; rounds (BFS levels, without changing the pop
// order) are counted into the ledger and, when a tracer is set, reported
// to it with the frontier size, the round's pops and changes, and the
// next frontier's size.
func (e *Engine[V]) drain() {
	for round := 1; e.wl.Len() > 0; round++ {
		frontier := e.wl.Len()
		e.st.Stats.Ledger.Rounds++
		pops0, changes0 := e.st.Stats.Pops, e.st.Stats.Changes
		for n := frontier; n > 0; n-- {
			x, ok := e.wl.Pop()
			if !ok {
				break
			}
			e.st.Stats.Pops++
			switch {
			case e.uniform != nil:
				xv := e.st.Val[x]
				e.rowBuf = e.uniform.DependentRow(x, e.rowBuf[:0])
				for _, z := range e.rowBuf {
					if e.install(z, xv) {
						e.wl.AddOrAdjust(z)
					}
				}
			case e.relaxer != nil:
				e.relaxer.RelaxOut(x, e.st.Val[x], e.emitFn)
			default:
				e.inst.Dependents(x, e.visitFn)
			}
		}
		if e.tracer != nil {
			e.tracer.Round(round, int64(frontier),
				e.st.Stats.Pops-pops0, e.st.Stats.Changes-changes0, int64(e.wl.Len()))
		}
	}
}

// ResumeFrom drives the step function from an arbitrary scope over the
// current status. Per Lemma 2, if the status is feasible and the scope is
// valid w.r.t. it, the computation converges to the (unique) fixpoint for
// contracting and monotonic instances. Each scope variable is first
// re-evaluated itself, then propagated.
func (e *Engine[V]) ResumeFrom(scope []Var) {
	for _, x := range scope {
		e.recompute(x)
		e.wl.AddOrAdjust(x)
	}
	e.drain()
}

// Touched describes one variable whose input set evolved under ΔG.
// MaybeInfeasible marks variables whose old value may now be *below* what
// their update function yields — inputs were removed or weakened — and
// which h must therefore revise. Variables whose inputs only improved
// (e.g. the head of an inserted edge in SSSP) keep feasible values: they
// skip h's queue and go straight into H⁰ for the resumed step function.
// This is the per-update anchor analysis of §4 (Example 5) that keeps h
// bounded.
type Touched struct {
	X               Var
	MaybeInfeasible bool
}

// IncrementalRun is the deduced incremental algorithm A_Δ. The underlying
// graph must already be updated to G ⊕ ΔG; touched lists the variables
// whose update functions have evolved input sets due to ΔG (line 1 of
// Fig. 4), conservatively treating every one as potentially infeasible.
// It applies the initial scope function h to produce a feasible status D⁰
// and valid scope H⁰, then resumes the batch step function. It returns
// H⁰, in a list the engine reuses: valid until its next run.
func (e *Engine[V]) IncrementalRun(touched []Var) []Var {
	ts := make([]Touched, len(touched))
	for i, x := range touched {
		ts[i] = Touched{X: x, MaybeInfeasible: true}
	}
	return e.IncrementalRunDelta(ts, nil)
}

// IncrementalRunDelta is IncrementalRun with per-variable feasibility
// hints (see Touched) and push seeds. A push seed is a variable whose
// outgoing contributions gained strength (e.g. the tail of an inserted
// edge): its own value is untouched and feasible, so the resumed step
// function merely re-propagates from it — for meet-form instances a plain
// relaxation — instead of fully re-evaluating the dependent's update
// function.
func (e *Engine[V]) IncrementalRunDelta(touched []Touched, pushSeeds []Var) []Var {
	start := time.Now()
	var before Stats
	if e.tracer != nil {
		before = e.st.Stats
		e.tracer.BeginRun(len(touched), len(pushSeeds))
	}
	led := &e.st.Stats.Ledger
	led.Runs++
	led.Touched += int64(len(touched))
	led.Seeds += int64(len(pushSeeds))
	led.RecomputeEst = int64(e.inst.NumVars())
	h0 := e.scopeFunction(touched)
	mid := time.Now()
	e.st.Stats.ScopeSize = int64(len(h0))
	if e.tracer != nil {
		d := e.st.Stats
		e.tracer.ScopeDone(d.HPops-before.HPops, d.HResets-before.HResets, int64(len(h0)))
	}
	resume0 := e.st.Stats
	for _, x := range h0 {
		e.recompute(x)
		e.wl.AddOrAdjust(x)
	}
	for _, x := range pushSeeds {
		e.ledgerAff(x)
		e.wl.AddOrAdjust(x)
	}
	e.drain()
	led.Changed += e.led.Settle(func(x int32, start V) bool {
		if e.inst.Equal(e.st.Val[x], start) {
			return false
		}
		e.ledgerAff(Var(x))
		return true
	})
	if e.tracer != nil {
		d := e.st.Stats
		e.tracer.EndRun(d.Pops-resume0.Pops, d.Changes-resume0.Changes)
	}
	e.st.Stats.HSeconds += mid.Sub(start).Seconds()
	e.st.Stats.ResumeSeconds += time.Since(mid).Seconds()
	return h0
}

// scopeFunction implements h (Fig. 4). It processes potentially infeasible
// variables in the order <_C — ascending old timestamps — revising each
// variable whose old value is strictly below what its update function
// yields on a feasible version of its input set, and propagating along
// anchor edges (contributors), which always point from smaller to larger
// timestamps.
//
// A revised variable keeps its timestamp: its new value is derived from
// inputs stamped before it, so its place in <_C still holds. A fresh stamp
// would move it after dependents h evaluated but left alone — one whose
// old value an inserted edge from the revised variable still matches
// would then have no anchor before it, and the next run's h, which
// enqueues only dependents stamped after a revised variable, would leave
// it at a value its lost anchor set. Only the resumed step function
// stamps, on every value it changes.
func (e *Engine[V]) scopeFunction(touched []Touched) []Var {
	st := e.st
	que := e.hq
	e.led.Begin()
	h0 := e.h0[:0]
	// H⁰ members are the first entrants of the run's affected area, so AFF
	// membership is also H⁰'s dedup.
	addH0 := func(x Var) {
		if e.ledgerAff(x) {
			h0 = append(h0, x)
		}
	}
	for _, t := range touched {
		addH0(t.X)
		if t.MaybeInfeasible {
			que.AddOrAdjust(int32(t.X))
		}
	}
	for {
		top, ok := que.Pop()
		if !ok {
			break
		}
		x := Var(top)
		st.Stats.HPops++
		e.hx = x
		st.Stats.Updates++
		newv := e.inst.Update(x, e.hGetFn)
		if e.inst.Less(st.Val[x], newv) {
			// x's old value is potentially infeasible for G ⊕ ΔG: revise
			// it and inspect the variables it contributed to.
			e.led.Write(int32(x), st.Val[x])
			st.Val[x] = newv
			st.Stats.HResets++
			addH0(x)
			e.inst.Dependents(x, e.hEnqFn)
		}
	}
	e.h0 = h0
	return h0
}

// Fixpoint reports whether the current status is a fixpoint: every
// variable equals its update function applied to the current values. It
// costs a full pass and is meant for tests.
func (e *Engine[V]) Fixpoint() bool {
	for x := 0; x < e.inst.NumVars(); x++ {
		v := e.inst.Update(Var(x), func(y Var) V { return e.st.Val[y] })
		if !e.inst.Equal(v, e.st.Val[x]) {
			return false
		}
	}
	return true
}
