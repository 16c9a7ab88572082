// Package lcc implements local clustering coefficients (§5.3 of the
// paper) on undirected graphs: the batch fixpoint algorithm LCC_fp over
// the status variables d_v (degree) and λ_v (incident triangles), the
// deducible incremental algorithm IncLCC, and the streaming competitor
// DynLCC (Ediger et al. style exact per-edge delta maintenance). IncLCC's
// scope is the potentially-affected variables — the endpoints of each
// changed edge and their common neighbors: the variables with that edge in
// their input set — and it repairs them by the derivative of the count:
// a changed edge (a, b) moves λ_a and λ_b by ±|N(a) ∩ N(b)| and each common
// neighbor's λ by ±1.
//
// γ_v = 2·λ_v / (d_v·(d_v − 1)); nodes of degree < 2 have γ_v = 0.
package lcc

import (
	"fmt"
	"slices"

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

// Brute recomputes the result by enumerating neighbor pairs, the O(Σ d²)
// reference used by tests.
func Brute(g *graph.Graph) *Result {
	r := NewResult(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		ns, _, _, _ := g.Flat().OutSpans(graph.NodeID(v))
		r.Deg[v] = int32(len(ns))
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i], ns[j]) {
					r.Tri[v]++
				}
			}
		}
	}
	return r
}

// Run is the batch fixpoint algorithm LCC_fp over g's sorted rows: d_v
// is a row's length, and a triangle pass finds each
// triangle {w < v < u} once, from its two largest corners — for each edge
// (u, v) with v < u, the rows of u and v are merged below v only, and
// every common neighbor w credits all three corners.
func Run(g *graph.Graph) *Result { return run(g.Flat(), g.NumNodes()) }

// run is Run over f, the adjacency of a graph of n nodes.
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
//
// Repair does not recount λ over that scope: it applies the derivative of
// the count. A triangle that exists on one side of an update (a, b) only
// contains the edge (a, b), and its third corner is a common neighbor w
// of a and b — the same set on both sides, since the update changes no
// edge between w and a or b. So the update moves λ_a and λ_b by
// ±|N(a) ∩ N(b)| and each λ_w by ±1, insertions up and deletions down.
// Repair walks the applied updates of its round in reverse over the
// graph as it is after them (the shared Flat) and an overlay of the
// updates it has walked, so update k reads the rows of G_k, the graph
// right after it: the raw sequence stays exact, churn included, with no
// netting. d_v is the length of v's row of the Flat.
//
// The nodes credited that way are the scope of the input-set rule taken
// on the graph after the batch: a node that is a common neighbor of an
// update's endpoints in G_k and not after the batch (or the other way
// round) has a later update on an edge to one of them, so it is in the
// scope as an endpoint of that update either way. The maintained state is
// d_v and λ_v and nothing else — no auxiliary structure (§5.3); the
// overlay lives for one Repair.
//
// An Inc is not goroutine-safe: it (and the graph it owns) must be
// driven by a single writer goroutine making every call, reads included —
// Result aliases state that Apply mutates. Concurrent serving goes
// through internal/serve, which gives each maintainer one apply loop and
// publishes immutable snapshots to readers.
type Inc struct {
	g     *graph.Graph
	flat  *graph.Flat
	round uint64 // the last round of g this maintainer took
	r     *Result
	// nbrs holds one neighborhood at a time: that of an update's first
	// endpoint in G_k.
	nbrs fixpoint.VarSet
	// The scope is a dense set and a list that Repair builds, and Written
	// hands out until the next Repair. dtri and head hold Repair's scratch
	// for the nodes in it: λ_v's change so far, and v's overlay — the
	// entry of its last-walked update, or -1.
	inScope fixpoint.VarSet
	scope   []int32
	dtri    []int64
	head    []int32
	// next links the overlay: entry 2k (2k+1) stands for update k at its
	// From (To) endpoint, and next[e] is the entry of the update walked
	// before it at the same node, or -1.
	next  []int32
	stats fixpoint.Stats
}

// NewInc runs the batch algorithm and returns the incremental one.
func NewInc(g *graph.Graph) *Inc {
	i := Blank(g)
	i.r = run(i.flat, g.NumNodes())
	return i
}

// Recompute reruns the batch algorithm at the graph's round, leaving what
// NewInc builds.
func (i *Inc) Recompute() {
	i.round = i.g.Round()
	i.r = run(i.flat, i.g.NumNodes())
	i.scope = i.scope[:0]
}

// Blank returns the incremental algorithm over g before the batch run,
// with no status: the maintainer a checkpointed status is restored into
// (RestoreState) or Recompute fills, before Apply.
func Blank(g *graph.Graph) *Inc {
	n := g.NumNodes()
	i := &Inc{
		g: g, flat: g.Flat(), round: g.Round(), r: &Result{},
		dtri: make([]int64, n), head: make([]int32, n),
	}
	i.nbrs.Begin(n)
	i.inScope.Begin(n)
	return i
}

// Graph returns the maintained graph.
func (i *Inc) Graph() *graph.Graph { return i.g }

// Result returns the maintained status (aliased).
func (i *Inc) Result() *Result { return i.r }

// Written lists the scope of the last Apply (or Repair), each node once:
// the endpoints of its updates and their common neighbors, a superset of
// the nodes whose d_v or λ_v changed. It aliases internal state,
// allocates nothing, and is valid until the next Apply.
func (i *Inc) Written() []int32 { return i.scope }

// Stats exposes the work account: per Repair the ledger gains the applied
// updates (Touched), the scope (Aff) and the nodes of it whose d_v or λ_v
// came out different (Changed); Reads counts the Flat row entries
// scanned, the rows of both endpoints once per applied update.
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

// Apply computes G ⊕ ΔG for any sequence of unit updates b and repairs
// the status. It returns the size of the scope, the affected-area
// measure. Updates that change nothing — deleting an absent edge, inserting a present one — are
// not in the round's applied list and add nothing to the scope. The batch
// needs no netting: the derivative holds for any sequence.
func (i *Inc) Apply(b graph.Batch) int {
	i.g.Advance(b)
	return i.Repair()
}

// add puts v in the scope.
func (i *Inc) add(v graph.NodeID) {
	if i.inScope.Add(fixpoint.Var(v)) {
		i.scope = append(i.scope, int32(v))
		i.dtri[v], i.head[v] = 0, -1
	}
}

// credit puts v in the scope and adds d to λ_v's change.
func (i *Inc) credit(v graph.NodeID, d int64) {
	i.add(v)
	i.dtri[v] += d
}

// other returns the endpoint of overlay entry e's update that is not the
// node whose overlay holds e.
func other(applied graph.Batch, e int32) graph.NodeID {
	u := applied[e>>1]
	if e&1 == 0 {
		return u.To
	}
	return u.From
}

// sign is +1 for an insertion and -1 for a deletion.
func sign(u graph.Update) int64 {
	if u.Kind == graph.InsertEdge {
		return 1
	}
	return -1
}

// Repair walks the applied updates of the graph's newest round from the
// last to the first. Before update k = (a, b) is walked, the
// overlay holds the updates after it, so a row of the Flat corrected by
// its node's overlay is the row in G_k. Update k then credits ±1 to every
// common neighbor w of a and b there and ±|N(a) ∩ N(b)| to a and b, and
// joins the overlay. Finally d_v is read off the Flat for every node in
// the scope, and λ_v takes its accumulated change.
func (i *Inc) Repair() int {
	applied := i.g.Take(&i.round)
	i.inScope.Begin(0)
	i.scope = i.scope[:0]
	if len(applied) == 0 {
		return 0
	}
	i.next = slices.Grow(i.next[:0], 2*len(applied))[:2*len(applied)]
	for k := len(applied) - 1; k >= 0; k-- {
		u := applied[k]
		a, b, sgn := u.From, u.To, sign(u)
		i.add(a) // before common reads their overlays
		i.add(b)
		c := i.common(applied, a, b, sgn)
		i.dtri[a] += sgn * c
		i.dtri[b] += sgn * c
		e := int32(2 * k)
		i.next[e], i.head[a] = i.head[a], e
		i.next[e+1], i.head[b] = i.head[b], e+1
	}
	led := &i.stats.Ledger
	led.Runs++
	led.Touched += int64(len(applied))
	led.Aff += int64(len(i.scope))
	led.RecomputeEst = int64(i.g.NumNodes())
	for _, v := range i.scope {
		ts, _, _, _ := i.flat.OutSpans(graph.NodeID(v))
		d, dt := int32(len(ts)), i.dtri[v]
		if d != i.r.Deg[v] || dt != 0 {
			i.r.Deg[v] = d
			i.r.Tri[v] += dt
			led.Changed++
		}
	}
	return len(i.scope)
}

// common returns |N(a) ∩ N(b)| in the graph the overlay describes and
// credits sgn to each node of the intersection. N(a) is stamped exactly:
// a's row, each overlay entry at a toggling its neighbor (the updates of
// one edge alternate between insertion and deletion). N(b) is counted
// linearly instead — membership in b's row, less the sign of every
// overlay entry at b — so a node may be credited and debited the same
// amount, and it is then an endpoint of that entry's update, in the scope
// either way.
func (i *Inc) common(applied graph.Batch, a, b graph.NodeID, sgn int64) int64 {
	nbrs := &i.nbrs
	nbrs.Begin(0)
	ts, _, _, _ := i.flat.OutSpans(a)
	for _, x := range ts {
		nbrs.Add(fixpoint.Var(x))
	}
	for e := i.head[a]; e >= 0; e = i.next[e] {
		if x := fixpoint.Var(other(applied, e)); !nbrs.Add(x) {
			nbrs.Remove(x)
		}
	}
	var c int64
	rs, _, _, _ := i.flat.OutSpans(b)
	i.stats.Reads += int64(len(ts) + len(rs))
	for _, x := range rs {
		if nbrs.Has(fixpoint.Var(x)) {
			i.credit(x, sgn)
			c++
		}
	}
	for e := i.head[b]; e >= 0; e = i.next[e] {
		if x := other(applied, e); nbrs.Has(fixpoint.Var(x)) {
			s := sign(applied[e>>1])
			i.credit(x, -s*sgn)
			c -= s
		}
	}
	return c
}

// DynLCC is the streaming competitor (Ediger et al.): every unit update
// adjusts the triangle counts by the common neighborhood of its endpoints
// — exact deltas, one edge at a time.
type DynLCC struct {
	g    *graph.Graph
	r    *Result
	nbrs fixpoint.VarSet // the first endpoint's neighborhood
}

// NewDynLCC runs the batch algorithm and returns the competitor.
func NewDynLCC(g *graph.Graph) *DynLCC {
	return &DynLCC{g: g, r: Run(g)}
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
	d.nbrs.Begin(d.g.NumNodes())
	f := d.g.Flat()
	as, _, _, _ := f.OutSpans(a)
	for _, c := range as {
		d.nbrs.Add(fixpoint.Var(c))
	}
	bs, _, _, _ := f.OutSpans(b)
	for _, c := range bs {
		if c != a && d.nbrs.Has(fixpoint.Var(c)) {
			d.r.Tri[a] += sgn
			d.r.Tri[b] += sgn
			d.r.Tri[c] += sgn
		}
	}
}
