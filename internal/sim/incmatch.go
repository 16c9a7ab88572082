package sim

import "incgraph/internal/graph"

// simState is the counter machinery Sim_fp, IncSim and IncMatch share: the
// relation bitmap plus cnt(v, u') = number of v's out-neighbors matching
// u', with the violation cascade that retracts unsupported matches. It
// reads the data graph's edges from flat, the pattern's from its rows.
type simState struct {
	g, q *graph.Graph
	flat *graph.Flat
	nq   int
	r    []bool
	cnt  []int32

	// ts, when non-nil, records per pair the time it turned false —
	// tsTrue while true. It is the auxiliary timestamp structure of the
	// weakly deducible IncSim; IncMatch and Sim_fp leave it nil.
	ts    []int64
	clock int64

	// onFalse, when non-nil, observes every cascade retraction of pair
	// (v, u). IncSim installs it to charge retractions to its work
	// ledger; Sim_fp and IncMatch leave it nil (no accounting cost).
	onFalse func(v, u int32)
}

// tsTrue is the timestamp of pairs that are currently true (x[v,u].t = ∞
// in the paper's notation).
const tsTrue = int64(1) << 62

func newSimState(g *graph.Graph, f *graph.Flat, q *graph.Graph, withTS bool) *simState {
	s := &simState{g: g, q: q, flat: f, nq: q.NumNodes()}
	pairs := g.NumNodes() * s.nq
	s.r, s.cnt = make([]bool, pairs), make([]int32, pairs)
	if withTS {
		s.ts = make([]int64, pairs)
	}
	s.run()
	return s
}

// run computes the maximum simulation from scratch into s's tables, which
// have a pair per node of the data graph, the clock starting at 0.
func (s *simState) run() {
	n := s.g.NumNodes()
	s.clock = 0
	for v := 0; v < n; v++ {
		for u := 0; u < s.nq; u++ {
			x := v*s.nq + u
			s.r[x] = s.g.Label(graph.NodeID(v)) == s.q.Label(graph.NodeID(u))
			s.cnt[x] = 0
			if s.ts != nil {
				s.ts[x] = 0
				if s.r[x] {
					s.ts[x] = tsTrue
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		ts, _, _, _ := s.flat.OutSpans(graph.NodeID(v))
		for _, w := range ts {
			for u := 0; u < s.nq; u++ {
				if s.r[int(w)*s.nq+u] {
					s.cnt[v*s.nq+u]++
				}
			}
		}
	}
	var p [][2]int32
	for v := 0; v < n; v++ {
		for u := 0; u < s.nq; u++ {
			if s.cnt[v*s.nq+u] == 0 {
				p = append(p, [2]int32{int32(v), int32(u)})
			}
		}
	}
	s.cascade(p)
}

// cascade retracts matches transitively from the exhausted (v, u') pairs,
// stamping turn-off times when timestamps are enabled.
func (s *simState) cascade(p [][2]int32) {
	for len(p) > 0 {
		pair := p[len(p)-1]
		p = p[:len(p)-1]
		v, uPrime := pair[0], pair[1]
		qs, _, _, _ := s.q.Flat().InSpans(graph.NodeID(uPrime))
		for _, up := range qs {
			u := int32(up)
			if !s.r[int(v)*s.nq+int(u)] {
				continue
			}
			s.r[int(v)*s.nq+int(u)] = false
			if s.ts != nil {
				s.clock++
				s.ts[int(v)*s.nq+int(u)] = s.clock
			}
			if s.onFalse != nil {
				s.onFalse(v, u)
			}
			ts, _, _, _ := s.flat.InSpans(graph.NodeID(v))
			for _, w := range ts {
				i := int(w)*s.nq + int(u)
				s.cnt[i]--
				if s.cnt[i] == 0 {
					p = append(p, [2]int32{int32(w), u})
				}
			}
		}
	}
}

// relation copies the current bitmap.
func (s *simState) relation() Relation {
	return Relation{NQ: s.nq, Bits: append([]bool(nil), s.r...)}
}

// IncMatch is the fine-tuned incremental simulation competitor in the
// style of Fan, Wang and Wu (TODS 2013): deletions cascade through the
// counters exactly; insertions re-run the batch refinement on an affected
// ball around the inserted edges. For DAG patterns a ball of depth |V_Q|
// is exact, since a pair's match status depends only on out-paths no
// longer than the pattern's height; cyclic patterns can propagate new
// matches arbitrarily far, so IncMatch falls back to the full backward
// closure — the weakness that IncSim's timestamps avoid (§5.1).
type IncMatch struct {
	*simState
	round   uint64 // the last round of the data graph this algorithm took
	acyclic bool
}

// NewIncMatch computes the initial maximum simulation.
func NewIncMatch(g, q *graph.Graph) *IncMatch {
	return &IncMatch{simState: newSimState(g, g.Flat(), q, false), round: g.Round(), acyclic: isDAG(q)}
}

// isDAG reports whether the pattern has no directed cycle.
func isDAG(q *graph.Graph) bool {
	n := q.NumNodes()
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	var visit func(graph.NodeID) bool
	visit = func(v graph.NodeID) bool {
		state[v] = 1
		qs, _, _, _ := q.Flat().OutSpans(v)
		for _, w := range qs {
			switch state[w] {
			case 1:
				return false
			case 0:
				if !visit(w) {
					return false
				}
			}
		}
		state[v] = 2
		return true
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 && !visit(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// Graph returns the maintained data graph.
func (m *IncMatch) Graph() *graph.Graph { return m.g }

// Relation returns the current match relation.
func (m *IncMatch) Relation() Relation { return m.relation() }

// Apply nets b and advances the data graph by it (G ⊕ ΔG), then repairs
// the relation: counter cascades for deletions, affected-ball
// recomputation for insertions.
func (m *IncMatch) Apply(b graph.Batch) int {
	m.g.Advance(b.Net(m.g.Directed()))
	return m.Repair()
}

// Repair processes the data graph's newest round, which must be net: the
// counters count each applied update once.
func (m *IncMatch) Repair() int {
	applied := m.g.Take(&m.round)
	var offSeeds [][2]int32
	var inserted []graph.NodeID
	adjust := func(from, to graph.NodeID, delta int32) {
		for u := 0; u < m.nq; u++ {
			if m.r[int(to)*m.nq+u] {
				i := int(from)*m.nq + u
				m.cnt[i] += delta
				if delta < 0 && m.cnt[i] == 0 {
					offSeeds = append(offSeeds, [2]int32{int32(from), int32(u)})
				}
			}
		}
	}
	for _, up := range applied {
		switch up.Kind {
		case graph.DeleteEdge:
			adjust(up.From, up.To, -1)
			if !m.g.Directed() {
				adjust(up.To, up.From, -1)
			}
		case graph.InsertEdge:
			adjust(up.From, up.To, 1)
			inserted = append(inserted, up.From)
			if !m.g.Directed() {
				adjust(up.To, up.From, 1)
				inserted = append(inserted, up.To)
			}
		}
	}
	m.cascade(offSeeds)
	affected := 0
	if len(inserted) > 0 {
		affected = m.insertRepair(inserted)
	}
	return affected
}

// insertRepair raises candidate pairs in a backward ball around the
// insertion sites to the label-match over-approximation and re-refines.
// The ball has depth |V_Q| for DAG patterns (exact: a pair's status
// depends on out-paths no longer than the pattern height) and is the full
// backward closure otherwise.
func (m *IncMatch) insertRepair(sites []graph.NodeID) int {
	depth := m.q.NumNodes()
	if !m.acyclic {
		depth = m.g.NumNodes()
	}
	dist := make(map[graph.NodeID]int, len(sites)*4)
	queue := make([]graph.NodeID, 0, len(sites))
	for _, s := range sites {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		d := dist[v]
		if d >= depth {
			continue
		}
		ts, _, _, _ := m.flat.InSpans(v)
		for _, w := range ts {
			if _, ok := dist[w]; !ok {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	// Raise in-ball candidate pairs to the label over-approximation.
	var raised [][2]int32
	for v := range dist {
		for u := 0; u < m.nq; u++ {
			i := int(v)*m.nq + u
			if !m.r[i] && m.g.Label(v) == m.q.Label(graph.NodeID(u)) {
				m.r[i] = true
				raised = append(raised, [2]int32{int32(v), int32(u)})
			}
		}
	}
	// Account the raises in the counters of in-neighbors.
	for _, p := range raised {
		ts, _, _, _ := m.flat.InSpans(graph.NodeID(p[0]))
		for _, w := range ts {
			m.cnt[int(w)*m.nq+int(p[1])]++
		}
	}
	// Refine: every raised pair with an exhausted out-requirement seeds
	// the cascade.
	var seeds [][2]int32
	for _, p := range raised {
		qs, _, _, _ := m.q.Flat().OutSpans(graph.NodeID(p[1]))
		for _, up := range qs {
			if m.cnt[int(p[0])*m.nq+int(up)] == 0 {
				seeds = append(seeds, [2]int32{p[0], int32(up)})
			}
		}
	}
	m.cascade(seeds)
	return len(raised)
}
