package serve

import (
	"encoding/gob"
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

// The adapters below wrap each incremental maintainer as a Serveable.
// The maintainers alias internal state from their accessors (Dist,
// Labels, …) and keep mutating it across Apply calls, so a published
// view holds its vectors as Paged values instead: each adapter keeps the
// vectors it last published, and Snapshot builds the next ones with
// Paged.Update, which copies the pages whose content changed and shares
// the rest with the previous epoch. SSSP, CC, LCC, DFS and BC hand Update
// the maintainer's written list, so publishing costs what the apply wrote;
// Sim, whose view is gathered match lists and not the maintainer's own
// vector (and any adapter after Recompute or RestoreState), passes nil and
// pays one comparison pass over the vector.
//
// Apply returns an ApplyResult instead of the bare affected count: all six
// maintainers expose cumulative fixpoint.Stats, so each adapter snapshots
// the counters around Apply and reports the per-apply delta — the numbers
// Theorem 3 is about — rather than discarding them. The engine-backed
// classes count what the engine counts; LCC, DFS and BC, which repair with
// their own machinery, keep the same ledger by hand (Touched, Aff,
// AffEdges, Changed: see each maintainer's Stats).
//
// PersistState/RestoreState serialize the maintainer's incremental state
// as a gob blob for durability checkpoints. What each class persists is
// exactly what Theorem 1's weak deducibility says it must keep beyond
// the answer itself: the engine-backed classes persist their timestamps
// and clock (the anchor order <_C), sim its falsification timestamps,
// dfs/lcc nothing beyond the interval/status variables, and bc its three
// per-node arrays (flags, blocks, DFS numbers). Recompute rebuilds the maintainer by re-running the
// batch algorithm over the current graph — the self-healing and
// recovery-verification path.

// pubState tells an adapter with a written list what Snapshot may hand
// Paged.Update: the maintainer's list describes exactly one apply, so it
// is the truth only when exactly one happened since the last Snapshot.
type pubState struct{ applies int }

// nothingWritten is the written list of a maintainer nobody applied to.
var nothingWritten = []int32{}

// applied notes one Apply; unknown, a change no written list covers
// (Recompute, RestoreState).
func (p *pubState) applied() { p.applies++ }
func (p *pubState) unknown() { p.applies = 2 }

// written returns what to pass Update given the maintainer's list w, and
// starts the next publication interval. An apply that wrote nothing may
// leave w nil, which Update would read as unknown.
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

type ssspServeable struct {
	inc  *sssp.Inc
	src  graph.NodeID
	dist Paged[int64] // last published
	pub  pubState
}

// SSSP adapts an IncSSSP maintainer.
func SSSP(inc *sssp.Inc, src graph.NodeID) Serveable {
	return &ssspServeable{inc: inc, src: src}
}

func (s *ssspServeable) Algo() string        { return "sssp" }
func (s *ssspServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *ssspServeable) Apply(b graph.Batch) ApplyResult {
	s.pub.applied()
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *ssspServeable) Snapshot() any {
	s.dist = s.dist.Update(s.inc.Dist(), s.pub.written(s.inc.Written()))
	return SSSPView{Src: s.src, Dist: s.dist}
}
func (s *ssspServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }

// Flat exposes the current inner maintainer's flat adjacency view to the
// host's compaction and dead-space metrics.
func (s *ssspServeable) Flat() *graph.Flat { return s.inc.Flat() }

// ssspState is the gob envelope of PersistState: the distances are
// IncSSSP's complete incremental state (deducible; <_C is distance
// order).
type ssspState struct{ Dist []int64 }

func (s *ssspServeable) PersistState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(ssspState{Dist: s.inc.Dist()})
}
func (s *ssspServeable) RestoreState(r io.Reader) error {
	var st ssspState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	s.pub.unknown()
	return s.inc.RestoreState(st.Dist)
}
func (s *ssspServeable) Recompute() {
	s.pub.unknown()
	s.inc = sssp.NewInc(s.inc.Graph(), s.src)
}

// statser is the slice of the maintainer API the stats plumbing needs.
type statser interface{ Stats() fixpoint.Stats }

// statsDelta runs one Apply on a stats-exposing maintainer and packages
// the affected count with the counter delta attributable to that apply.
//
// The per-apply work ledger rides the same Stats snapshot: the engine
// fills |CHANGED|, |AFF|, ‖AFF‖, and rounds, and the adapter completes
// the cost model with the two quantities only the serving layer knows —
// |ΔG| (the net batch size) and the recompute estimate (nodes + edges of
// the graph after the apply).
func statsDelta(m statser, g *graph.Graph, delta int, apply func() int) ApplyResult {
	before := m.Stats()
	aff := apply()
	res := ApplyResult{Affected: aff, Stats: m.Stats().Sub(before), HasStats: true}
	res.Ledger = res.Stats.Ledger
	res.Ledger.Delta = int64(delta)
	res.Ledger.RecomputeEst = int64(g.NumNodes() + g.NumEdges())
	res.HasLedger = true
	return res
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

type ccServeable struct {
	inc    *cc.Inc
	labels Paged[int64] // last published
	pub    pubState
}

// CC adapts an IncCC maintainer.
func CC(inc *cc.Inc) Serveable { return &ccServeable{inc: inc} }

func (s *ccServeable) Algo() string        { return "cc" }
func (s *ccServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *ccServeable) Apply(b graph.Batch) ApplyResult {
	s.pub.applied()
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *ccServeable) Snapshot() any {
	s.labels = s.labels.Update(s.inc.Labels(), s.pub.written(s.inc.Written()))
	return CCView{Labels: s.labels}
}
func (s *ccServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }

// Flat exposes the current inner maintainer's flat adjacency view to the
// host's compaction and dead-space metrics.
func (s *ccServeable) Flat() *graph.Flat { return s.inc.Flat() }

// ccState is the gob envelope of PersistState: labels plus the engine's
// timestamps and clock, which carry the anchor order <_C across a
// restart.
type ccState struct {
	Labels, TS []int64
	Clock      int64
}

func (s *ccServeable) PersistState(w io.Writer) error {
	labels, ts, clock := s.inc.ExportState()
	return gob.NewEncoder(w).Encode(ccState{Labels: labels, TS: ts, Clock: clock})
}
func (s *ccServeable) RestoreState(r io.Reader) error {
	var st ccState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	s.pub.unknown()
	return s.inc.RestoreState(st.Labels, st.TS, st.Clock)
}
func (s *ccServeable) Recompute() {
	s.pub.unknown()
	s.inc = cc.NewInc(s.inc.Graph())
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

type simServeable struct {
	inc     *sim.Inc
	matches []Paged[graph.NodeID] // last published
	scratch []graph.NodeID        // one match list being gathered
}

// Sim adapts an IncSim maintainer.
func Sim(inc *sim.Inc) Serveable { return &simServeable{inc: inc} }

func (s *simServeable) Algo() string                { return "sim" }
func (s *simServeable) Graph() *graph.Graph         { return s.inc.Graph() }
func (s *simServeable) SetTracer(t fixpoint.Tracer) { s.inc.SetTracer(t) }
func (s *simServeable) Apply(b graph.Batch) ApplyResult {
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *simServeable) Snapshot() any {
	r := s.inc.Relation()
	n := len(r.Bits) / r.NQ
	if s.matches == nil {
		s.matches = make([]Paged[graph.NodeID], r.NQ)
	}
	for u := 0; u < r.NQ; u++ {
		s.scratch = s.scratch[:0]
		for d := 0; d < n; d++ {
			if r.Match(graph.NodeID(d), graph.NodeID(u)) {
				s.scratch = append(s.scratch, graph.NodeID(d))
			}
		}
		s.matches[u] = s.matches[u].Update(s.scratch, nil)
	}
	return SimView{NQ: r.NQ, Count: r.Count(), Matches: slices.Clone(s.matches)}
}

// simState is the gob envelope of PersistState: the match relation, the
// support counters, and the falsification timestamps — IncSim's
// auxiliary structure, which is what makes it only weakly deducible
// (§5.1).
type simState struct {
	R     []bool
	Cnt   []int32
	TS    []int64
	Clock int64
}

func (s *simServeable) PersistState(w io.Writer) error {
	r, cnt, ts, clock := s.inc.ExportState()
	return gob.NewEncoder(w).Encode(simState{R: r, Cnt: cnt, TS: ts, Clock: clock})
}
func (s *simServeable) RestoreState(r io.Reader) error {
	var st simState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	return s.inc.RestoreState(st.R, st.Cnt, st.TS, st.Clock)
}
func (s *simServeable) Recompute() { s.inc = sim.NewInc(s.inc.Graph(), s.inc.Pattern()) }

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

type dfsServeable struct {
	inc  *dfs.Inc
	last DFSView // last published
	pub  pubState
}

// DFS adapts an IncDFS maintainer.
func DFS(inc *dfs.Inc) Serveable { return &dfsServeable{inc: inc} }

func (s *dfsServeable) Algo() string        { return "dfs" }
func (s *dfsServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *dfsServeable) Apply(b graph.Batch) ApplyResult {
	s.pub.applied()
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *dfsServeable) Snapshot() any {
	t := s.inc.Tree()
	written := s.pub.written(s.inc.Written())
	s.last = DFSView{
		First:  s.last.First.Update(t.First, written),
		Last:   s.last.Last.Update(t.Last, written),
		Parent: s.last.Parent.Update(t.Parent, written),
	}
	return s.last
}

// dfsState is the gob envelope of PersistState: the interval variables
// are IncDFS's complete incremental state — anchors and <_C are read off
// them directly (§5.2).
type dfsState struct {
	First, Last []int32
	Parent      []graph.NodeID
}

func (s *dfsServeable) PersistState(w io.Writer) error {
	t := s.inc.Tree()
	return gob.NewEncoder(w).Encode(dfsState{First: t.First, Last: t.Last, Parent: t.Parent})
}
func (s *dfsServeable) RestoreState(r io.Reader) error {
	var st dfsState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	s.pub.unknown()
	return s.inc.RestoreState(st.First, st.Last, st.Parent)
}
func (s *dfsServeable) Recompute() {
	s.pub.unknown()
	s.inc = dfs.NewInc(s.inc.Graph())
}

// Flat exposes the current inner maintainer's flat adjacency view to the
// host's compaction and dead-space metrics.
func (s *dfsServeable) Flat() *graph.Flat { return s.inc.Flat() }

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

type lccServeable struct {
	inc   *lcc.Inc
	last  LCCView   // last published
	gamma []float64 // the coefficients of the last published status, refreshed where it was written
	pub   pubState
}

// LCC adapts an IncLCC maintainer.
func LCC(inc *lcc.Inc) Serveable { return &lccServeable{inc: inc} }

func (s *lccServeable) Algo() string        { return "lcc" }
func (s *lccServeable) Graph() *graph.Graph { return s.inc.Graph() }
func (s *lccServeable) Apply(b graph.Batch) ApplyResult {
	s.pub.applied()
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}

// Snapshot derives γ from d and λ at the written nodes only — the rest of
// s.gamma is what the last Snapshot derived from values that have not
// changed since — unless the change is unknown or the graph has grown.
func (s *lccServeable) Snapshot() any {
	r := s.inc.Result()
	written := s.pub.written(s.inc.Written())
	if written == nil || len(s.gamma) != len(r.Deg) {
		written = nil
		s.gamma = s.gamma[:0]
		for i := range r.Deg {
			s.gamma = append(s.gamma, r.Gamma(graph.NodeID(i)))
		}
	}
	for _, i := range written {
		s.gamma[i] = r.Gamma(graph.NodeID(i))
	}
	s.last = LCCView{
		Deg:   s.last.Deg.Update(r.Deg, written),
		Tri:   s.last.Tri.Update(r.Tri, written),
		Gamma: s.last.Gamma.Update(s.gamma, written),
	}
	return s.last
}

// Flat exposes the current inner maintainer's flat adjacency view to the
// host's compaction and dead-space metrics.
func (s *lccServeable) Flat() *graph.Flat { return s.inc.Flat() }

// lccState is the gob envelope of PersistState: d_v and λ_v are IncLCC's
// complete state — it keeps no auxiliary structure (§5.3).
type lccState struct {
	Deg []int32
	Tri []int64
}

func (s *lccServeable) PersistState(w io.Writer) error {
	r := s.inc.Result()
	return gob.NewEncoder(w).Encode(lccState{Deg: r.Deg, Tri: r.Tri})
}
func (s *lccServeable) RestoreState(r io.Reader) error {
	var st lccState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	s.pub.unknown()
	return s.inc.RestoreState(st.Deg, st.Tri)
}
func (s *lccServeable) Recompute() {
	s.pub.unknown()
	s.inc = lcc.NewInc(s.inc.Graph())
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

type bcServeable struct {
	inc  *bc.Inc
	arts Paged[bool] // last published
	pub  pubState
}

// BC adapts an IncBC maintainer.
func BC(inc *bc.Inc) Serveable { return &bcServeable{inc: inc} }

func (s *bcServeable) Algo() string        { return "bc" }
func (s *bcServeable) Graph() *graph.Graph { return s.inc.Graph() }

// Flat exposes the current inner maintainer's flat adjacency view to the
// host's compaction and dead-space metrics.
func (s *bcServeable) Flat() *graph.Flat { return s.inc.Flat() }
func (s *bcServeable) Apply(b graph.Batch) ApplyResult {
	s.pub.applied()
	return statsDelta(s.inc, s.inc.Graph(), len(b), func() int { return s.inc.Apply(b) })
}
func (s *bcServeable) Snapshot() any {
	r := s.inc.Result()
	s.arts = s.arts.Update(r.Articulation, s.pub.written(s.inc.Written()))
	return BCView{Articulation: s.arts, NumComps: r.NumComps()}
}

// bcState is the gob envelope of PersistState: the articulation flags and
// the two per-node arrays the edge partition is read off (Result.EdgeComp).
// A checkpoint written before the partition was per node carries the flags
// and an edge-keyed map instead; gob drops the field it does not know, and
// Block comes back nil.
type bcState struct {
	Articulation []bool
	Block        []graph.NodeID
	Num          []int32
}

func (s *bcServeable) PersistState(w io.Writer) error {
	r := s.inc.Result()
	return gob.NewEncoder(w).Encode(bcState{Articulation: r.Articulation, Block: r.Block, Num: r.Num})
}
func (s *bcServeable) RestoreState(r io.Reader) error {
	var st bcState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	if st.Block == nil { // the older shape: nothing to restore the partition from, so derive it
		s.Recompute()
		return nil
	}
	s.pub.unknown()
	return s.inc.RestoreState(st.Articulation, st.Block, st.Num)
}
func (s *bcServeable) Recompute() {
	s.pub.unknown()
	s.inc = bc.NewInc(s.inc.Graph())
}
