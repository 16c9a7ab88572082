package serve

import (
	"io"
	"slices"
	"sort"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// Every class is served by one adapter over a narrow maintainer interface
// (Graph, Repair, Recompute, Stats, Written), the way the paper builds
// every class: a batch fixpoint algorithm, its incremental form, and the
// auxiliary state a restart must keep. A class supplies a descriptor of
// three parts — its name, a view builder, and the export and restore of
// its state vectors, which its registry entry (registry.go) names — and
// the adapter owns the rest. Apply only repairs: the round's one writer
// advanced the graph before it.
//
// Publication: the maintainers alias internal state from their accessors
// (Dist, Labels, …) and keep mutating it across Apply calls, so a published
// view holds its vectors as Paged values instead. The adapter keeps the
// view it last published, and the view builder derives the next one with
// Paged.Update, which copies the pages whose content changed and shares
// the rest with the previous epoch. The builder gets the maintainer's
// written list when that list covers everything since the last Snapshot,
// so publishing costs what the apply wrote; after Recompute or
// RestoreState, or several applies, it gets nil (unknown) and pays one
// comparison pass. Sim's list holds pairs v·|V_Q| + u: its builder
// re-gathers the match lists of the pattern nodes u written and shares
// every other list with the previous epoch.
//
// Apply returns an ApplyResult instead of the bare affected count: all six
// maintainers expose cumulative fixpoint.Stats, so the adapter snapshots
// the counters around Repair and reports the per-apply delta — the numbers
// Theorem 3 is about. The engine-backed classes count what the engine
// counts; LCC, DFS and BC, which repair with their own machinery, keep the
// same ledger by hand (Touched, Aff, AffEdges, Changed: see each
// maintainer's Stats).
//
// PersistState/RestoreState write and read the class's state for
// durability checkpoints in the state codec (state.go). What each class
// persists is exactly what Theorem 1's weak deducibility says it must keep
// beyond the answer itself: cc its timestamps and clock (the anchor order
// <_C), sim its support counters, falsification timestamps and clock
// (§5.1), sssp, dfs and lcc nothing beyond the distance, interval and
// status variables (§5.2, §5.3), and bc its three per-node arrays (flags,
// and the blocks and DFS numbers the edge partition is read off).
// Recompute reruns the maintainer's batch algorithm in place — a start's
// batch run, the self-healing and recovery-verification path — after
// laying the graph's Flat view out again from its rows: every class's
// repairs and batch rerun read the Flat and its certificates the rows
// (the rule internal/graph/store.go states), so the rerun does not read
// what staging made of the rows.

// maintainer is what the adapter needs of an incremental maintainer.
// Written lists the indices (nodes, or sim's pairs) the last Repair
// wrote, a superset of those whose value changed.
type maintainer interface {
	Graph() *graph.Graph
	Repair() int
	Recompute()
	Stats() fixpoint.Stats
	Written() []int32
}

// adapter serves one class: M is its maintainer and V its published view.
type adapter[M maintainer, V any] struct {
	// The class's descriptor.
	name string
	// view builds the next view from the last published one and the
	// indices written since (nil: unknown).
	view func(m M, last V, written []int32) V
	// export and restore: the class's fields of a classState.
	export  func(m M) *classState
	restore func(m M, st *classState) error

	m    M
	last V // last published
	pub  pubState
}

// pubState tells the adapter what to hand the view builder: the
// maintainer's list describes exactly one apply, so it is the truth only
// when exactly one happened since the last Snapshot.
type pubState struct{ applies int }

// nothingWritten is the written list of a maintainer nobody applied to.
var nothingWritten = []int32{}

// applied notes one Apply; unknown, a change no written list covers
// (Recompute, RestoreState).
func (p *pubState) applied() { p.applies++ }
func (p *pubState) unknown() { p.applies = 2 }

// written returns what to pass the view builder given the maintainer's
// list w, and starts the next publication interval. An apply that wrote
// nothing may leave w nil, which would read as unknown.
func (p *pubState) written(w []int32) []int32 {
	n := p.applies
	p.applies = 0
	switch {
	case n == 0 || (n == 1 && len(w) == 0):
		return nothingWritten
	case n == 1:
		return w
	}
	return nil
}

func (a *adapter[M, V]) Algo() string        { return a.name }
func (a *adapter[M, V]) Graph() *graph.Graph { return a.m.Graph() }

// Written is the maintainer's written list of its last Apply.
func (a *adapter[M, V]) Written() []int32 { return a.m.Written() }

// Apply repairs for b, which the graph took as its newest round, and
// packages the affected count with the counter delta attributable to it.
// The per-apply work ledger rides the same Stats snapshot: the maintainer
// fills |CHANGED|, |AFF|, ‖AFF‖ and rounds, and the adapter completes the
// cost model with the two quantities only the serving layer knows — |ΔG|
// (the net batch size) and the recompute estimate (nodes + edges of the
// graph after the apply).
func (a *adapter[M, V]) Apply(b graph.Batch) ApplyResult {
	a.pub.applied()
	before := a.m.Stats()
	aff := a.m.Repair()
	res := ApplyResult{Affected: aff, Stats: a.m.Stats().Sub(before), HasStats: true, HasLedger: true}
	g := a.m.Graph()
	res.Ledger = res.Stats.Ledger
	res.Ledger.Delta = int64(len(b))
	res.Ledger.RecomputeEst = int64(g.NumNodes() + g.NumEdges())
	return res
}

func (a *adapter[M, V]) Snapshot() any {
	a.last = a.view(a.m, a.last, a.pub.written(a.m.Written()))
	return a.last
}

func (a *adapter[M, V]) PersistState(w io.Writer) error {
	_, err := w.Write(appendState(nil, stateVecs(a.name), a.export(a.m)))
	return err
}

func (a *adapter[M, V]) RestoreState(r io.Reader) error {
	var st classState
	data, err := io.ReadAll(r)
	if err == nil {
		err = decodeState(data, stateVecs(a.name), &st)
	}
	if err != nil {
		return err
	}
	a.pub.unknown()
	return a.restore(a.m, &st)
}

func (a *adapter[M, V]) Recompute() {
	a.pub.unknown()
	a.m.Graph().Relayout()
	a.m.Recompute()
}

// Certify checks the maintainer's state by its certificate, for a
// maintainer that has one (sssp, cc); see certifier.
func (a *adapter[M, V]) Certify() (has bool, err error) {
	if c, ok := any(a.m).(interface{ Certify() error }); ok {
		return true, c.Certify()
	}
	return false, nil
}

// SetTracer forwards the engine's span hook to a maintainer that takes one
// (sssp, cc, sim); for the others it is a no-op.
func (a *adapter[M, V]) SetTracer(t fixpoint.Tracer) {
	if ts, ok := any(a.m).(tracerSetter); ok {
		ts.SetTracer(t)
	}
}

// SSSPView is the published snapshot of an SSSP maintainer.
type SSSPView struct {
	// Src is the source node.
	Src graph.NodeID `json:"src"`
	// Dist[v] is the shortest distance from Src to v; graph.Infinity for
	// unreachable nodes.
	Dist Paged[int64] `json:"dist"`
}

func (v SSSPView) viewFields(lo, hi int) []viewField {
	return []viewField{{name: "src", num: int64(v.Src)}, {name: "dist", vec: cutOf(v.Dist, lo, hi)}}
}

// SSSP adapts an IncSSSP maintainer; the view's source is the maintainer's.
func SSSP(inc *sssp.Inc) Serveable {
	return &adapter[*sssp.Inc, SSSPView]{
		name: "sssp",
		m:    inc,
		view: func(m *sssp.Inc, last SSSPView, written []int32) SSSPView {
			return SSSPView{Src: m.Source(), Dist: last.Dist.Update(m.Dist(), written)}
		},
		export:  func(m *sssp.Inc) *classState { return &classState{Dist: m.Dist()} },
		restore: func(m *sssp.Inc, st *classState) error { return m.RestoreState(st.Dist) },
	}
}

// CCView is the published snapshot of a connected-components maintainer.
type CCView struct {
	// Labels[v] is the minimum node id of v's (weakly) connected
	// component.
	Labels Paged[int64] `json:"labels"`
}

func (v CCView) viewFields(lo, hi int) []viewField {
	return []viewField{{name: "labels", vec: cutOf(v.Labels, lo, hi)}}
}

// CC adapts an IncCC maintainer.
func CC(inc *cc.Inc) Serveable {
	return &adapter[*cc.Inc, CCView]{
		name: "cc",
		m:    inc,
		view: func(m *cc.Inc, last CCView, written []int32) CCView {
			return CCView{Labels: last.Labels.Update(m.Labels(), written)}
		},
		export: func(m *cc.Inc) *classState {
			labels, ts, clock := m.ExportState()
			return &classState{Labels: labels, TS: ts, Clock: clock}
		},
		restore: func(m *cc.Inc, st *classState) error { return m.RestoreState(st.Labels, st.TS, st.Clock) },
	}
}

// SimView is the published snapshot of a graph-simulation maintainer.
type SimView struct {
	// NQ is the pattern's node count.
	NQ int `json:"nq"`
	// Count is the number of (data node, pattern node) matches in the
	// maximum simulation.
	Count int `json:"count"`
	// Matches[u] lists the data nodes matching pattern node u, ascending.
	Matches []Paged[graph.NodeID] `json:"matches"`
}

// viewFields cuts every match list to the data nodes in [lo, hi): the
// lists ascend, so those are one run, found by binary search.
func (v SimView) viewFields(lo, hi int) []viewField {
	list := make([]cut, len(v.Matches))
	for u, m := range v.Matches {
		at := func(bound int) int {
			return sort.Search(m.Len(), func(k int) bool { return int(m.At(k)) >= bound })
		}
		list[u] = cut{m, at(lo), at(hi)}
	}
	return []viewField{{name: "nq", num: int64(v.NQ)}, {name: "count", num: int64(v.Count)}, {name: "matches", list: list}}
}

// Sim adapts an IncSim maintainer. A written pair v·|V_Q| + u names the
// match list of pattern node u; only those lists are gathered again.
func Sim(inc *sim.Inc) Serveable {
	var (
		scratch []graph.NodeID // one match list being gathered
		touched []bool         // per pattern node: written since the last view
	)
	return &adapter[*sim.Inc, SimView]{
		name: "sim",
		m:    inc,
		view: func(m *sim.Inc, last SimView, written []int32) SimView {
			nq := m.Pattern().NumNodes()
			v := SimView{NQ: nq, Matches: slices.Clone(last.Matches)}
			if v.Matches == nil { // the first view
				v.Matches, written = make([]Paged[graph.NodeID], nq), nil
			}
			touched = slices.Grow(touched[:0], nq)[:nq]
			for u := range touched {
				touched[u] = written == nil
			}
			for _, x := range written {
				touched[int(x)%nq] = true
			}
			for u := range v.Matches {
				if touched[u] {
					scratch = m.AppendMatches(scratch[:0], graph.NodeID(u))
					v.Matches[u] = v.Matches[u].Update(scratch, nil)
				}
				v.Count += v.Matches[u].Len()
			}
			return v
		},
		export: func(m *sim.Inc) *classState {
			r, cnt, ts, clock := m.ExportState()
			return &classState{R: r, Cnt: cnt, TS: ts, Clock: clock}
		},
		restore: func(m *sim.Inc, st *classState) error { return m.RestoreState(st.R, st.Cnt, st.TS, st.Clock) },
	}
}

// DFSView is the published snapshot of a DFS maintainer: the canonical
// forest as preorder/postorder intervals plus parent pointers.
type DFSView struct {
	First  Paged[int32]        `json:"first"`
	Last   Paged[int32]        `json:"last"`
	Parent Paged[graph.NodeID] `json:"parent"`
}

func (v DFSView) viewFields(lo, hi int) []viewField {
	return []viewField{
		{name: "first", vec: cutOf(v.First, lo, hi)},
		{name: "last", vec: cutOf(v.Last, lo, hi)},
		{name: "parent", vec: cutOf(v.Parent, lo, hi)},
	}
}

// DFS adapts an IncDFS maintainer.
func DFS(inc *dfs.Inc) Serveable {
	return &adapter[*dfs.Inc, DFSView]{
		name: "dfs",
		m:    inc,
		view: func(m *dfs.Inc, last DFSView, written []int32) DFSView {
			t := m.Tree()
			return DFSView{
				First:  last.First.Update(t.First, written),
				Last:   last.Last.Update(t.Last, written),
				Parent: last.Parent.Update(t.Parent, written),
			}
		},
		export: func(m *dfs.Inc) *classState {
			return &classState{First: m.Tree().First, Last: m.Tree().Last, Parent: m.Tree().Parent}
		},
		restore: func(m *dfs.Inc, st *classState) error { return m.RestoreState(st.First, st.Last, st.Parent) },
	}
}

// LCCView is the published snapshot of a local-clustering-coefficient
// maintainer.
type LCCView struct {
	Deg Paged[int32] `json:"deg"`
	Tri Paged[int64] `json:"tri"`
	// Gamma[v] is the local clustering coefficient of v.
	Gamma Paged[float64] `json:"gamma"`
}

func (v LCCView) viewFields(lo, hi int) []viewField {
	return []viewField{
		{name: "deg", vec: cutOf(v.Deg, lo, hi)},
		{name: "tri", vec: cutOf(v.Tri, lo, hi)},
		{name: "gamma", vec: cutOf(v.Gamma, lo, hi)},
	}
}

// LCC adapts an IncLCC maintainer. Its view derives γ from d and λ at the
// written nodes only — the rest of gamma is what the last view derived
// from values that have not changed since — unless the change is unknown
// or no view has been derived yet.
func LCC(inc *lcc.Inc) Serveable {
	var gamma []float64 // the coefficients of the last published view
	return &adapter[*lcc.Inc, LCCView]{
		name: "lcc",
		m:    inc,
		view: func(m *lcc.Inc, last LCCView, written []int32) LCCView {
			r := m.Result()
			if written == nil || len(gamma) != len(r.Deg) {
				written = nil
				gamma = gamma[:0]
				for i := range r.Deg {
					gamma = append(gamma, r.Gamma(graph.NodeID(i)))
				}
			}
			for _, i := range written {
				gamma[i] = r.Gamma(graph.NodeID(i))
			}
			return LCCView{
				Deg:   last.Deg.Update(r.Deg, written),
				Tri:   last.Tri.Update(r.Tri, written),
				Gamma: last.Gamma.Update(gamma, written),
			}
		},
		export:  func(m *lcc.Inc) *classState { return &classState{Deg: m.Result().Deg, Tri: m.Result().Tri} },
		restore: func(m *lcc.Inc, st *classState) error { return m.RestoreState(st.Deg, st.Tri) },
	}
}

// BCView is the published snapshot of a biconnectivity maintainer.
type BCView struct {
	// Articulation[v] reports whether v is an articulation point.
	Articulation Paged[bool] `json:"articulation"`
	// NumComps is the number of biconnected edge components.
	NumComps int `json:"num_comps"`
}

func (v BCView) viewFields(lo, hi int) []viewField {
	return []viewField{
		{name: "articulation", vec: cutOf(v.Articulation, lo, hi)},
		{name: "num_comps", num: int64(v.NumComps)},
	}
}

// BC adapts an IncBC maintainer.
func BC(inc *bc.Inc) Serveable {
	return &adapter[*bc.Inc, BCView]{
		name: "bc",
		m:    inc,
		view: func(m *bc.Inc, last BCView, written []int32) BCView {
			r := m.Result()
			return BCView{Articulation: last.Articulation.Update(r.Articulation, written), NumComps: r.NumComps()}
		},
		export: func(m *bc.Inc) *classState {
			r := m.Result()
			return &classState{Articulation: r.Articulation, Block: r.Block, Num: r.Num}
		},
		restore: func(m *bc.Inc, st *classState) error { return m.RestoreState(st.Articulation, st.Block, st.Num) },
	}
}
