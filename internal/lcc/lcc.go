// Package lcc implements local clustering coefficients (§5.3 of the
// paper) on undirected graphs: the batch fixpoint algorithm LCC_fp over
// the status variables d_v (degree) and λ_v (incident triangles), the
// deducible incremental algorithm IncLCC that recomputes exactly the
// potentially-affected variables (the endpoints of each changed edge and
// their common neighbors: the variables with that edge in their input
// set), and the streaming competitor DynLCC (Ediger et al. style exact
// per-edge delta maintenance).
//
// γ_v = 2·λ_v / (d_v·(d_v − 1)); nodes of degree < 2 have γ_v = 0.
package lcc

import (
	"fmt"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Result holds the status variables of LCC_fp: the degree and triangle
// count per node.
type Result struct {
	Deg []int32
	Tri []int64
}

// NewResult allocates a zeroed result for n nodes.
func NewResult(n int) *Result {
	return &Result{Deg: make([]int32, n), Tri: make([]int64, n)}
}

// Gamma returns the local clustering coefficient of v.
func (r *Result) Gamma(v graph.NodeID) float64 {
	d := int64(r.Deg[v])
	if d < 2 {
		return 0
	}
	return 2 * float64(r.Tri[v]) / float64(d*(d-1))
}

// Equal reports whether two results agree on every variable.
func (r *Result) Equal(o *Result) bool {
	if len(r.Deg) != len(o.Deg) {
		return false
	}
	for i := range r.Deg {
		if r.Deg[i] != o.Deg[i] || r.Tri[i] != o.Tri[i] {
			return false
		}
	}
	return true
}

func (r *Result) clone() *Result {
	return &Result{Deg: append([]int32(nil), r.Deg...), Tri: append([]int64(nil), r.Tri...)}
}

func (r *Result) grow(n int) {
	for len(r.Deg) < n {
		r.Deg = append(r.Deg, 0)
		r.Tri = append(r.Tri, 0)
	}
}

// Brute recomputes the result by enumerating neighbor pairs, the O(Σ d²)
// reference used by tests.
func Brute(g *graph.Graph) *Result {
	r := NewResult(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		ns := g.Out(graph.NodeID(v))
		r.Deg[v] = int32(len(ns))
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i].To, ns[j].To) {
					r.Tri[v]++
				}
			}
		}
	}
	return r
}

// Run is the batch fixpoint algorithm LCC_fp over the sorted rows of
// graph.NewFlat(g): d_v is a row's length, and a triangle pass finds each
// triangle {w < v < u} once, from its two largest corners — for each edge
// (u, v) with v < u, the rows of u and v are merged below v only, and
// every common neighbor w credits all three corners.
func Run(g *graph.Graph) *Result { return run(graph.NewFlat(g), g.NumNodes()) }

// run is Run over f, the flat view of a graph of n nodes.
func run(f *graph.Flat, n int) *Result {
	r := NewResult(n)
	for u := 0; u < n; u++ {
		row, _, _, _ := f.OutSpans(graph.NodeID(u))
		r.Deg[u] = int32(len(row))
		for k, v := range row {
			if v >= graph.NodeID(u) {
				break
			}
			b, _, _, _ := f.OutSpans(v)
			a := row[:k] // u's neighbors below v
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					r.Tri[u]++
					r.Tri[v]++
					r.Tri[a[i]]++
					i++
					j++
				}
			}
		}
	}
	return r
}

// Inc is the deducible incremental algorithm IncLCC. Its scope function is
// the input-set rule of Fig. 4: an edge (u, v) is in the input set of d_u,
// d_v, λ_u, λ_v and of λ_w for exactly the common neighbors w of u and v,
// so those are the variables a changed edge makes potentially affected.
// The common neighbors of a deleted edge are taken on the graph before the
// Stage that deletes it, those of an inserted edge on the graph at Repair:
// a triangle that exists on one side of the update only has a changed edge,
// and its third corner is a common neighbor of that edge on the side where
// the triangle exists (or an endpoint of another changed edge). The scope
// is recomputed with the original update functions and nothing else — no
// auxiliary structure at all (§5.3).
//
// Adjacency is read through a graph.Flat kept in step with the graph, as
// in dfs and bc: sorted struct-of-arrays rows let a recount stop each
// neighbor row at the neighbor's own id, which visits every triangle once.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Result aliases state that Apply mutates. Concurrent serving goes
// through internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g    *graph.Graph
	flat *graph.Flat
	r    *Result
	// mark/epoch stamp one neighborhood at a time: the row a common-
	// neighbor scan or a recount tests membership in.
	mark  []int64
	epoch int64
	// pending holds the applied updates of the Stages since the last
	// Repair.
	pending graph.Batch
	// The scope is an epoch-marked dense set (mark array + list) that Stage
	// and Repair both add to. It is emptied by the next Stage, not by
	// Repair, so that Written can hand it out in between.
	scopeMark  []int64
	scopeEpoch int64
	scope      []int32
	stats      fixpoint.Stats
}

// NewInc runs the batch algorithm and returns the incremental one.
func NewInc(g *graph.Graph) *Inc {
	n, f := g.NumNodes(), graph.NewFlat(g)
	return &Inc{
		g: g, flat: f, r: run(f, n),
		mark:      make([]int64, n),
		scopeMark: make([]int64, n), scopeEpoch: 1,
	}
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Flat returns the maintainer's flat adjacency view: dead space and
// compaction counts for observability, SetCompactThreshold for tests that
// force a compaction regime.
func (i *Inc) Flat() *graph.Flat { return i.flat }

// Result returns the maintained status (aliased).
func (i *Inc) Result() *Result { return i.r }

// Written lists the nodes the last Apply (or Repair) recounted, each once:
// its scope, a superset of the nodes whose d_v or λ_v changed. It aliases
// internal state, allocates nothing, and is valid until the next Apply.
func (i *Inc) Written() []int32 { return i.scope }

// Stats exposes the work account: per Repair the ledger gains the applied
// updates (Touched), the recounted nodes (Aff) and those of them whose d_v
// or λ_v came out different (Changed); Reads counts the adjacency row
// entries scanned.
func (i *Inc) Stats() fixpoint.Stats { return i.stats }

// RestoreState overwrites the maintained status with one exported from a
// checkpoint of the same graph. The d_v and λ_v variables are IncLCC's
// complete state — it keeps no auxiliary structure (§5.3). The slices
// are copied.
func (i *Inc) RestoreState(deg []int32, tri []int64) error {
	n := i.g.NumNodes()
	if len(deg) != n || len(tri) != n {
		return fmt.Errorf("lcc: restore of %d/%d variables into graph with %d nodes", len(deg), len(tri), n)
	}
	i.r = &Result{Deg: append([]int32(nil), deg...), Tri: append([]int64(nil), tri...)}
	return nil
}

// Apply computes G ⊕ ΔG for any sequence of unit updates b and recomputes
// the scope. It returns the number of λ recomputations, the
// affected-area measure.
func (i *Inc) Apply(b graph.Batch) int {
	i.Stage(b)
	return i.Repair()
}

// Stage materializes G ⊕ ΔG update by update, adding to the scope the
// endpoints of every update that changes the graph and, for a deletion,
// the common neighbors the endpoints had when the Stage began (the flat
// view is staged last, so it still shows that graph). Updates that change
// nothing — deleting an absent edge, inserting a present one — add nothing.
// The batch needs no netting: the rule holds for any sequence.
func (i *Inc) Stage(b graph.Batch) {
	if len(i.pending) == 0 { // nothing staged since the last Repair: its scope is still here
		i.scopeEpoch++
		i.scope = i.scope[:0]
	}
	i.grow()
	from := len(i.pending)
	for _, u := range b {
		switch u.Kind {
		case graph.InsertEdge:
			if !i.g.InsertEdge(u.From, u.To, u.W) {
				continue
			}
		case graph.DeleteEdge:
			if !i.g.DeleteEdge(u.From, u.To) {
				continue
			}
			i.addCommon(u.From, u.To) // read from the flat view, not from i.g
		default:
			continue
		}
		i.add(u.From)
		i.add(u.To)
		i.pending = append(i.pending, u)
	}
	i.flat.Stage(i.g, i.pending[from:])
	i.flat.MaybeCompact(i.g)
}

// grow extends the per-node arrays to the graph's current node count.
func (i *Inc) grow() {
	n := i.g.NumNodes()
	i.r.grow(n)
	for len(i.mark) < n {
		i.mark = append(i.mark, 0)
		i.scopeMark = append(i.scopeMark, 0)
	}
}

// add puts v in the scope.
func (i *Inc) add(v graph.NodeID) {
	if i.scopeMark[v] != i.scopeEpoch {
		i.scopeMark[v] = i.scopeEpoch
		i.scope = append(i.scope, int32(v))
	}
}

// stamp marks v's neighbors in the flat view with a fresh epoch.
func (i *Inc) stamp(v graph.NodeID) {
	i.epoch++
	ts, _, _, _ := i.flat.OutSpans(v)
	i.stats.Reads += int64(len(ts))
	for _, x := range ts {
		i.mark[x] = i.epoch
	}
}

// addCommon puts the common neighbors of u and v in the flat view into
// the scope, in O(d_u + d_v).
func (i *Inc) addCommon(u, v graph.NodeID) {
	i.stamp(u)
	ts, _, _, _ := i.flat.OutSpans(v)
	i.stats.Reads += int64(len(ts))
	for _, x := range ts {
		if i.mark[x] == i.epoch {
			i.add(x)
		}
	}
}

// Repair completes the scope with the common neighbors of the inserted
// edges on the graph as it is now, and recomputes d_v and λ_v over it.
func (i *Inc) Repair() int {
	applied := i.pending
	i.pending = i.pending[:0]
	i.grow() // nodes added since the last Stage
	if len(applied) == 0 {
		return 0
	}
	for _, u := range applied {
		if u.Kind == graph.InsertEdge {
			i.addCommon(u.From, u.To)
		}
	}
	led := &i.stats.Ledger
	led.Runs++
	led.Touched += int64(len(applied))
	led.Aff += int64(len(i.scope))
	led.RecomputeEst = int64(i.g.NumNodes())
	for _, v := range i.scope {
		d, tri := int32(i.g.Degree(graph.NodeID(v))), i.countTriangles(graph.NodeID(v))
		if d != i.r.Deg[v] || tri != i.r.Tri[v] {
			i.r.Deg[v], i.r.Tri[v] = d, tri
			led.Changed++
		}
	}
	return len(i.scope)
}

// countTriangles recomputes λ_v: with v's neighbors stamped, every
// neighbor x contributes its stamped neighbors below x, so each triangle
// {v, x, y} is seen once, from its larger corner.
func (i *Inc) countTriangles(v graph.NodeID) int64 {
	i.stamp(v)
	ts, _, _, _ := i.flat.OutSpans(v)
	var cnt int64
	for _, x := range ts {
		cnt += i.stampedBelow(x)
	}
	return cnt
}

// stampedBelow counts x's neighbors y < x that carry the current stamp:
// x's sorted row up to x's own position.
func (i *Inc) stampedBelow(x graph.NodeID) int64 {
	ts, _, _, _ := i.flat.OutSpans(x)
	mark, epoch := i.mark, i.epoch
	var cnt int64
	k := 0
	for ; k < len(ts) && ts[k] < x; k++ {
		if mark[ts[k]] == epoch {
			cnt++
		}
	}
	i.stats.Reads += int64(k)
	return cnt
}

// DynLCC is the streaming competitor (Ediger et al.): every unit update
// adjusts the triangle counts by the common neighborhood of its endpoints
// — exact deltas, one edge at a time.
type DynLCC struct {
	g     *graph.Graph
	r     *Result
	mark  []int64
	epoch int64
}

// NewDynLCC runs the batch algorithm and returns the competitor.
func NewDynLCC(g *graph.Graph) *DynLCC {
	return &DynLCC{g: g, r: Run(g), mark: make([]int64, g.NumNodes())}
}

// Graph returns the maintained graph.
func (d *DynLCC) Graph() *graph.Graph { return d.g }

// Result returns the maintained status.
func (d *DynLCC) Result() *Result { return d.r }

// Apply processes each unit update with a common-neighborhood delta.
func (d *DynLCC) Apply(b graph.Batch) int {
	for _, u := range b {
		d.applyUnit(u)
	}
	return 0
}

func (d *DynLCC) applyUnit(u graph.Update) {
	switch u.Kind {
	case graph.InsertEdge:
		if !d.g.InsertEdge(u.From, u.To, u.W) {
			return
		}
		d.r.grow(d.g.NumNodes())
		for len(d.mark) < d.g.NumNodes() {
			d.mark = append(d.mark, 0)
		}
		d.r.Deg[u.From]++
		d.r.Deg[u.To]++
		d.delta(u.From, u.To, 1)
	case graph.DeleteEdge:
		if !d.g.DeleteEdge(u.From, u.To) {
			return
		}
		d.delta(u.From, u.To, -1)
		d.r.Deg[u.From]--
		d.r.Deg[u.To]--
	}
}

// delta adjusts triangle counts for the edge (a, b), just inserted or just
// deleted, by sgn per common neighbor.
func (d *DynLCC) delta(a, b graph.NodeID, sgn int64) {
	d.epoch++
	for _, e := range d.g.Out(a) {
		d.mark[e.To] = d.epoch
	}
	for _, e := range d.g.Out(b) {
		if e.To != a && d.mark[e.To] == d.epoch {
			d.r.Tri[a] += sgn
			d.r.Tri[b] += sgn
			d.r.Tri[e.To] += sgn
		}
	}
}
