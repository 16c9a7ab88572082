package fixpoint

// This file implements the engine's work ledger: per-run accounting of the
// quantities relative boundedness (§4, Theorem 3) is a statement about.
// Stats counts raw inspections; the ledger counts the *sets* the theorem
// bounds — |CHANGED|, |AFF|, ‖AFF‖ — plus the round structure of the
// resumed step function, so a serving layer can attribute every apply's
// cost to the paper's cost model and flag updates whose work is not a
// function of |ΔG| and |AFF|.
//
// Accounting is allocation-free: membership of the AFF and CHANGED sets is
// tracked by a Tracker — epoch-marked VarSets sized once, first-write old
// values in a preallocated shadow array — and every counter bump rides an
// existing hot-path branch. The nil-tracer zero-allocation guarantee is
// preserved and guarded by TestLedgerZeroAlloc.
//
// CHANGED is settled *after* the drain, as {x : D_final(x) ≠ D_start(x)}:
// counting installs as they happen would charge variables that move
// transiently and return to their starting value, and which variables do
// that depends on the propagation schedule (the worklist's pop order). The
// final-vs-start definition is the paper's CHANGED and is
// schedule-independent.

// WorkLedger is the per-run work account of the deduced incremental
// algorithm, attached to Stats. All fields except RecomputeEst are
// cumulative counters across runs; serve-layer snapshots isolate per-apply
// deltas with Sub/Add exactly as they do for the rest of Stats.
//
// Changed, Aff, and AffEdges are schedule-independent for contracting and
// monotonic instances: the set of variables the resumed step function
// moves (and hence the affected set and its incident edges) is determined
// by the revised status D⁰ and the unique fixpoint, not by the order of
// propagation. Rounds depends on the pop order; Portable strips it for
// cross-schedule comparison.
type WorkLedger struct {
	// Runs counts incremental runs folded into this ledger.
	Runs int64 `json:"runs"`
	// Delta is Σ|ΔG| — net graph updates behind the runs. The engine does
	// not see the graph delta; the serving adapters fill this in.
	Delta int64 `json:"delta"`
	// Touched is Σ of touched-variable counts handed to the runs (line 1
	// of Fig. 4), and Seeds the Σ of push-seed counts.
	Touched int64 `json:"touched"`
	Seeds   int64 `json:"seeds"`
	// Changed is |CHANGED| summed over runs: distinct variables whose
	// value at the end of the run differs from their value when the run
	// began. Transient moves that settle back are not counted — that makes
	// the field a property of the fixpoint, not of the schedule.
	Changed int64 `json:"changed"`
	// Aff is |AFF| summed over runs: distinct variables entering the
	// affected area (H⁰ ∪ push seeds ∪ CHANGED).
	Aff int64 `json:"aff"`
	// AffEdges is ‖AFF‖ summed over runs: dependency edges incident to
	// the affected variables, counted once per variable on first entry.
	// Zero when the instance does not implement OutDegreer.
	AffEdges int64 `json:"aff_edges"`
	// Rounds counts propagation rounds to fixpoint across all drains
	// (BFS-level decomposition; batch runs included).
	Rounds int64 `json:"rounds"`
	// RecomputeEst estimates the cost of recomputing from scratch instead
	// (variables + dependency edges of the current graph). Gauge-like:
	// Sub/Add keep the most recent value. The engine fills in its variable
	// count; adapters overwrite with nodes+edges of the graph.
	RecomputeEst int64 `json:"recompute_est"`
}

// Work returns the ledger's incremental-cost measure: affected variables
// plus their incident edges plus the touched set — the f(|ΔG|, ‖AFF‖)
// term of Theorem 3 that a bounded incremental run's cost must track.
func (l WorkLedger) Work() int64 { return l.Touched + l.Aff + l.AffEdges }

// BoundedRatio returns Work / Delta, the per-update boundedness quotient a
// dashboard alerts on: how much incremental work each unit of graph change
// caused. Returns 0 when no graph delta was recorded.
func (l WorkLedger) BoundedRatio() float64 {
	if l.Delta <= 0 {
		return 0
	}
	return float64(l.Work()) / float64(l.Delta)
}

// RecomputeRatio returns Work / RecomputeEst, the fraction of a
// from-scratch recomputation this ledger's work amounts to. Values near or
// above 1 mean incrementalization bought nothing. Returns 0 when no
// recompute estimate is recorded.
func (l WorkLedger) RecomputeRatio() float64 {
	if l.RecomputeEst <= 0 {
		return 0
	}
	return float64(l.Work()) / float64(l.RecomputeEst)
}

// Portable returns the ledger with schedule-dependent fields (Rounds)
// zeroed, leaving exactly the counters that are properties of the
// fixpoint and not of the order it was reached in — what the golden
// ledgers of the differential tests pin.
func (l WorkLedger) Portable() WorkLedger {
	l.Rounds = 0
	return l
}

// Sub returns the counter-wise difference l − o, isolating the work of
// the span between two snapshots of the same cumulative ledger.
// RecomputeEst is gauge-like and keeps the newer snapshot's value.
func (l WorkLedger) Sub(o WorkLedger) WorkLedger {
	return WorkLedger{
		Runs:         l.Runs - o.Runs,
		Delta:        l.Delta - o.Delta,
		Touched:      l.Touched - o.Touched,
		Seeds:        l.Seeds - o.Seeds,
		Changed:      l.Changed - o.Changed,
		Aff:          l.Aff - o.Aff,
		AffEdges:     l.AffEdges - o.AffEdges,
		Rounds:       l.Rounds - o.Rounds,
		RecomputeEst: l.RecomputeEst,
	}
}

// Add returns the counter-wise sum l + o, for aggregating per-run deltas
// into a running total. RecomputeEst takes o's (most recent) value.
func (l WorkLedger) Add(o WorkLedger) WorkLedger {
	return WorkLedger{
		Runs:         l.Runs + o.Runs,
		Delta:        l.Delta + o.Delta,
		Touched:      l.Touched + o.Touched,
		Seeds:        l.Seeds + o.Seeds,
		Changed:      l.Changed + o.Changed,
		Aff:          l.Aff + o.Aff,
		AffEdges:     l.AffEdges + o.AffEdges,
		Rounds:       l.Rounds + o.Rounds,
		RecomputeEst: o.RecomputeEst,
	}
}

// OutDegreer is an optional Instance extension reporting the number of
// dependency edges leaving a variable in the current graph. When
// implemented, the engine charges each variable's out-degree to the
// ledger's AffEdges (‖AFF‖) the first time the variable enters the
// affected area; without it AffEdges stays 0 and Work degrades to
// Touched + |AFF|. OutDegree must be O(1) — it runs on the hot path.
type OutDegreer interface {
	OutDegree(x Var) int64
}

// Tracker is the set bookkeeping behind one incremental run's ledger, kept
// once for every maintainer that reports one (the Engine, sssp.Inc,
// sim.Inc): which variables entered the affected area, and which were
// written together with the value each held when the run began — what
// CHANGED is settled from and what a publisher reads as the written list.
// Variables are dense int32 ids below the size given to Size, the one
// sizing, made when the maintainer is built. The zero value is ready for
// Size; before the first Begin nothing is recorded, so the writes of an
// initial batch run cost one compare each. After Size no method allocates.
//
// The counters stay with the caller: Aff and Settle say when to charge
// |AFF|, ‖AFF‖ and |CHANGED|, the caller knows what a variable's degree is.
type Tracker[V any] struct {
	aff, wrote VarSet
	old        []V     // run-start value of each written variable
	written    []int32 // the written variables, each once, in first-write order
}

// Size makes room for variables 0..n-1, the written list a slot per
// variable so Write never allocates. Call it once, on the zero Tracker.
func (t *Tracker[V]) Size(n int) {
	t.aff.mark = make([]int64, n)
	t.wrote.mark = make([]int64, n)
	t.old = make([]V, n)
	t.written = make([]int32, 0, n)
}

// Begin starts a run: both sets and the written list empty, in O(1).
func (t *Tracker[V]) Begin() {
	t.aff.Begin(0)
	t.wrote.Begin(0)
	t.written = t.written[:0]
}

// Reset empties the tracker and stops its recording until the next Begin,
// as after Size: a batch rerun's writes go unrecorded.
func (t *Tracker[V]) Reset() {
	t.aff.reset()
	t.wrote.reset()
	t.written = t.written[:0]
}

// Aff enters x into the run's affected area and reports whether this was
// its first entry — the moment the caller charges |AFF| and ‖AFF‖.
func (t *Tracker[V]) Aff(x int32) bool { return t.aff.Add(Var(x)) }

// Write records a value write at x; old, the value being overwritten, is
// kept only on x's first write of the run, when it is x's run-start value.
// It sits on every install, so it is one compare unless the write is a first.
func (t *Tracker[V]) Write(x int32, old V) {
	if t.wrote.Add(Var(x)) {
		t.old[x] = old
		t.written = append(t.written, x)
	}
}

// Settle runs once the run has reached its fixpoint. It calls changed for
// every written variable with its run-start value and returns how many
// times changed said yes: |CHANGED| = |{x : final(x) ≠ start(x)}|, which a
// variable written and then written back does not join. A changed variable
// is affected, so the callback is also where the caller enters it into Aff.
// The sweep costs O(written variables), bounded by the run's own work.
func (t *Tracker[V]) Settle(changed func(x int32, old V) bool) (n int64) {
	for _, x := range t.written {
		if changed(x, t.old[x]) {
			n++
		}
	}
	return n
}

// Written lists the variables written since Begin, each once: a superset
// of those whose value changed. It aliases the tracker's storage, is never
// nil after Size, and is valid until the next Begin.
func (t *Tracker[V]) Written() []int32 { return t.written }
