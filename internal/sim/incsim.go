package sim

import (
	"fmt"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// Inc is the weakly deducible incremental algorithm IncSim of §5.1, built
// on the same counters and logic as Sim_fp plus one auxiliary structure:
// a timestamp x[v,u].t per pair recording when it turned false. The
// timestamps supply the anchor order <_C, letting the initial scope
// function h of Fig. 4 repair insertions correctly even on cyclic
// patterns, where pure from-below propagation fails (Example 6).
//
// The generic-engine equivalent is IncEngine; both compute the same
// relation (tests cross-check them), but Inc propagates through counters
// the way Sim_fp does and is the implementation the benchmarks exercise.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included.
// Concurrent serving goes through internal/serve, which gives each
// maintainer one apply loop and publishes immutable snapshots to readers.
type Inc struct {
	*simState
	hq *pq.Heap
	// led is the work ledger's bookkeeping; a pair's AFF membership is also
	// its membership of H⁰, whose members are the area's first entrants.
	led fixpoint.Tracker[bool]
	// Repair-scope buffers, reused across Repairs so that a Repair at
	// steady state allocates nothing: arena dedupes the touched pairs and
	// keeps a pair potentially infeasible once any update says so.
	arena   fixpoint.ScopeArena
	h0buf   []int32
	seedBuf [][2]int32
	stats   fixpoint.Stats
	tracer  fixpoint.Tracer
	round   uint64 // the last round of the data graph this maintainer took
}

// NewInc computes the initial maximum simulation with timestamp recording
// and returns the algorithm.
func NewInc(g, q *graph.Graph) *Inc { return newInc(newSimState(g, g.Flat(), q, true)) }

// Blank returns IncSim over g and pattern q before the batch run, every
// pair false: the maintainer a checkpointed state is restored into
// (RestoreState) or Recompute fills, before Apply.
func Blank(g, q *graph.Graph) *Inc {
	s := &simState{g: g, q: q, flat: g.Flat(), nq: q.NumNodes()}
	pairs := g.NumNodes() * s.nq
	s.r, s.cnt, s.ts = make([]bool, pairs), make([]int32, pairs), make([]int64, pairs)
	return newInc(s)
}

// newInc positions IncSim at the relation, counters and stamps of s.
func newInc(s *simState) *Inc {
	i := &Inc{simState: s, round: s.g.Round()}
	i.led.Size(len(s.r))
	i.hq = pq.New(len(s.r), func(a, b int32) bool { return i.ts[a] < i.ts[b] })
	// Record cascade retractions in the ledger (a retracted pair was true
	// before the write); installed after the initial batch cascade above,
	// so only incremental repairs count.
	s.onFalse = func(v, u int32) { i.led.Write(v*int32(i.nq)+u, true) }
	return i
}

// Recompute reruns the batch computation in place, at the data graph's
// round, leaving what NewInc builds; the ledger records none of it.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	i.led.Reset()
	i.run()
}

// ledgerAff enters pair x into this repair's affected area and reports
// whether it was new there, in which case |AFF| grows by one and ‖AFF‖ by
// the pair's dependency degree — the dependent pairs over in-neighbors of
// its data node and pattern node, |In(v)|·|In(u)|.
func (i *Inc) ledgerAff(x int32) bool {
	if !i.led.Aff(x) {
		return false
	}
	i.stats.Ledger.Aff++
	v := graph.NodeID(int(x) / i.nq)
	u := graph.NodeID(int(x) % i.nq)
	in, _, _, _ := i.flat.InSpans(v)
	i.stats.Ledger.AffEdges += int64(len(in)) * int64(len(i.q.In(u)))
	return true
}

// Written lists the pairs (v·|V_Q| + u) whose match bit the last Repair
// wrote, each once: a superset of the bits that changed. It aliases
// internal state and is valid until the next Repair.
func (i *Inc) Written() []int32 { return i.led.Written() }

// Graph returns the maintained data graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Relation returns the current match relation.
func (i *Inc) Relation() Relation { return i.relation() }

// AppendMatches appends to dst the data nodes matching pattern node u,
// ascending, and returns the extended slice.
func (i *Inc) AppendMatches(dst []graph.NodeID, u graph.NodeID) []graph.NodeID {
	for x := int(u); x < len(i.r); x += i.nq {
		if i.r[x] {
			dst = append(dst, graph.NodeID(x/i.nq))
		}
	}
	return dst
}

// Stats exposes inspection counters and the h/resume time split.
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// Pattern returns the maintained pattern graph.
func (i *Inc) Pattern() *graph.Graph { return i.q }

// ExportState copies out the state a durability checkpoint persists: the
// match relation, the per-pair support counters, the falsification
// timestamps (IncSim's auxiliary structure, supplying the order <_C),
// and the logical clock.
func (i *Inc) ExportState() (r []bool, cnt []int32, ts []int64, clock int64) {
	return append([]bool(nil), i.r...), append([]int32(nil), i.cnt...),
		append([]int64(nil), i.ts...), i.clock
}

// RestoreState installs state exported from a checkpoint of the same
// data and pattern graphs as they are now: like Recompute, it leaves the
// maintainer at the data graph's round, so one whose graph advanced past
// it carries on from the restored state.
func (i *Inc) RestoreState(r []bool, cnt []int32, ts []int64, clock int64) error {
	want := i.g.NumNodes() * i.nq
	if len(r) != want || len(cnt) != want || len(ts) != want {
		return fmt.Errorf("sim: restore of %d/%d/%d pairs into relation with %d", len(r), len(cnt), len(ts), want)
	}
	copy(i.r, r)
	copy(i.cnt, cnt)
	copy(i.ts, ts)
	i.clock = clock
	i.round = i.g.Round()
	return nil
}

// SetTracer installs the span hook observing Repair's h and resume
// phases (see fixpoint.Tracer). Inc is not engine-based, so it drives
// the tracer itself: the touched size is the number of (node, pattern)
// pairs whose input sets evolved, and rounds are not reported — the
// resumed counter cascade is stack-driven, not level-structured. Call
// from the single writer goroutine.
func (i *Inc) SetTracer(t fixpoint.Tracer) { i.tracer = t }

// Apply computes G ⊕ ΔG for any sequence of unit updates b — netted or
// not — and incrementally maintains the relation: it adjusts the counters
// for the structural changes, runs the initial scope function h over the
// touched pairs in the order <_C, and resumes the counter cascade of
// Sim_fp on the produced scope H⁰. It returns |H⁰|.
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// Repair runs the incremental algorithm over the data graph's newest round.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	a := &i.arena
	a.Begin(len(i.r))
	i.led.Begin()
	// Insertions can raise pairs (more support, the infeasible direction
	// for Sim, where false ≺ true); deletions only retract and are left
	// to the resumed cascade.
	touch := func(v graph.NodeID, mayRaise bool) {
		for u := 0; u < i.nq; u++ {
			a.Touch(fixpoint.Var(int(v)*i.nq+u), mayRaise)
		}
	}
	adjust := func(from, to graph.NodeID, delta int32) {
		for u := 0; u < i.nq; u++ {
			if i.r[int(to)*i.nq+u] {
				i.cnt[int(from)*i.nq+u] += delta
			}
		}
	}
	for _, up := range applied {
		delta := int32(1)
		if up.Kind == graph.DeleteEdge {
			delta = -1
		}
		adjust(up.From, up.To, delta)
		if !i.g.Directed() {
			adjust(up.To, up.From, delta)
		}
		// The input sets of the changed edge's source pairs evolved; for
		// undirected data graphs the other endpoint's pairs too.
		mayRaise := up.Kind == graph.InsertEdge
		touch(up.From, mayRaise)
		if !i.g.Directed() {
			touch(up.To, mayRaise)
		}
	}
	touched := a.Touched()
	if len(touched) == 0 {
		return 0
	}
	st0 := i.stats
	i.stats.Ledger.Runs++
	i.stats.Ledger.Touched += int64(len(touched))
	i.stats.Ledger.RecomputeEst = int64(len(i.r))
	if i.tracer != nil {
		i.tracer.BeginRun(len(touched), 0)
	}
	start := time.Now()
	h0 := i.scopeFunction(touched)
	mid := time.Now()
	if i.tracer != nil {
		i.tracer.ScopeDone(i.stats.HPops-st0.HPops, i.stats.HResets-st0.HResets, int64(len(h0)))
	}
	i.resume(h0)
	// A pair raised by h and retracted again by the cascade is not CHANGED.
	i.stats.Ledger.Changed += i.led.Settle(func(x int32, start bool) bool {
		if i.r[x] == start {
			return false
		}
		i.ledgerAff(x)
		return true
	})
	i.stats.ScopeSize = int64(len(h0))
	i.stats.HSeconds += mid.Sub(start).Seconds()
	i.stats.ResumeSeconds += time.Since(mid).Seconds()
	if i.tracer != nil {
		// The counter cascade does not count pops or changes; EndRun
		// carries only the resume span's timing.
		i.tracer.EndRun(0, 0)
	}
	return len(h0)
}

// scopeFunction is h (Fig. 4) specialized to Sim: pairs are revised in
// ascending turn-off time; a popped false pair whose simulation condition
// holds on its feasible input set — later-determined inputs replaced by
// their label-match bottoms — is potentially infeasible and is raised back
// to true, propagating to the dependent pairs it may anchor. Every touched
// pair enters AFF and H⁰.
func (i *Inc) scopeFunction(touched []fixpoint.Touched) []int32 {
	h0 := i.h0buf[:0]
	defer func() { i.h0buf = h0[:0] }()
	for _, t := range touched {
		x := int32(t.X)
		i.ledgerAff(x)
		h0 = append(h0, x)
		if t.MaybeInfeasible && !i.r[x] {
			i.hq.AddOrAdjust(x)
		}
	}
	for {
		x, ok := i.hq.Pop()
		if !ok {
			break
		}
		i.stats.HPops++
		if i.r[x] {
			continue // true pairs are at the bottom already: feasible
		}
		v := graph.NodeID(int(x) / i.nq)
		u := graph.NodeID(int(x) % i.nq)
		if i.g.Label(v) != i.q.Label(u) {
			continue
		}
		tsx := i.ts[x]
		if !i.feasibleCond(v, u, tsx) {
			continue
		}
		// Potentially infeasible: raise the pair back to true.
		i.led.Write(x, false)
		i.r[x] = true
		i.ts[x] = tsTrue
		i.stats.HResets++
		if i.ledgerAff(x) {
			h0 = append(h0, x)
		}
		in, _, _, _ := i.flat.InSpans(v)
		for _, w := range in {
			i.cnt[int(w)*i.nq+int(u)]++
		}
		// Enqueue dependents that x may anchor: pairs over in-neighbors
		// with larger turn-off times.
		for _, w := range in {
			for _, qe := range i.q.In(u) {
				z := int32(int(w)*i.nq + int(qe.To))
				if !i.r[z] && i.ts[z] > tsx {
					i.hq.AddOrAdjust(z)
				}
			}
		}
	}
	return h0
}

// feasibleCond evaluates the simulation condition for (v, u) on the
// feasible input set Ȳ: inputs determined after tsx are replaced by their
// label-match bottoms.
func (i *Inc) feasibleCond(v, u graph.NodeID, tsx int64) bool {
	out, _, _, _ := i.flat.OutSpans(v)
	for _, qe := range i.q.Out(u) {
		found := false
		for _, w := range out {
			p := int(w)*i.nq + int(qe.To)
			i.stats.Reads++
			if i.ts[p] > tsx {
				// Determined after (v, u): use the bottom value.
				if i.g.Label(w) == i.q.Label(qe.To) {
					found = true
					break
				}
				continue
			}
			if i.r[p] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// resume is the step function of Sim_fp run from the scope H⁰: every
// scope pair with an exhausted requirement counter seeds the usual
// violation cascade.
func (i *Inc) resume(h0 []int32) {
	seeds := i.seedBuf[:0]
	defer func() { i.seedBuf = seeds[:0] }()
	for _, x := range h0 {
		v := int32(int(x) / i.nq)
		u := graph.NodeID(int(x) % i.nq)
		if !i.r[x] {
			continue
		}
		for _, qe := range i.q.Out(u) {
			if i.cnt[int(v)*i.nq+int(qe.To)] == 0 {
				seeds = append(seeds, [2]int32{v, int32(qe.To)})
			}
		}
	}
	i.cascade(seeds)
}
