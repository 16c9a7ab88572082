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
// tracked with epoch-mark arrays allocated once at engine construction
// (the same idiom the scope function already uses for H⁰ dedup), first-write
// old values land in a preallocated shadow array, and every counter bump
// rides an existing hot-path branch. The nil-tracer zero-allocation
// guarantee is preserved and guarded by TestLedgerZeroAlloc.
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

// ledgerAff records x's first entry into the current run's affected area:
// |AFF| grows by one and ‖AFF‖ by x's out-degree. Membership rides the
// same epoch-mark array the scope function uses for H⁰ dedup — H⁰
// variables are entered by addH0 itself — so the check is one array read.
func (e *Engine[V]) ledgerAff(x Var) {
	if e.inScope[x] == e.epoch {
		return
	}
	e.inScope[x] = e.epoch
	e.st.Stats.Ledger.Aff++
	if e.deg != nil {
		e.st.Stats.Ledger.AffEdges += e.deg.OutDegree(x)
	}
}

// ledgerWrite records a value write at x, capturing its pre-write value the
// first time x is written this run — i.e. its run-start value, which
// ledgerSettle compares against the fixpoint. Runs on every
// install/recompute change, so it is branch-first and allocation-free
// (chList is preallocated to one slot per variable; a run writes each
// variable's first-write entry at most once). During the initial batch run
// the epoch is 0 and the marks match, so batch writes are not recorded.
func (e *Engine[V]) ledgerWrite(x Var, old V) {
	if e.chMark[x] == e.epoch {
		return
	}
	e.chMark[x] = e.epoch
	e.chOld[x] = old
	e.chList = append(e.chList, int32(x))
}

// ledgerSettle runs after the drain reaches the fixpoint: every written
// variable whose final value differs from its run-start value is CHANGED
// (and therefore AFF). The sweep costs O(written variables) — bounded by
// the drain's own work — and allocates nothing.
func (e *Engine[V]) ledgerSettle() {
	for _, x := range e.chList {
		if !e.inst.Equal(e.st.Val[x], e.chOld[x]) {
			e.st.Stats.Ledger.Changed++
			e.ledgerAff(Var(x))
		}
	}
}
