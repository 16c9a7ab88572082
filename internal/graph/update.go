package graph

import "fmt"

// UpdateKind distinguishes the unit update types of the paper: edge
// insertions and deletions. A vertex deletion is expressed as its dual,
// the deletions of its incident edges (§4 of the paper); a vertex
// insertion is the insertions of the first edges at a node the graph was
// built with, still isolated (see NodeID).
type UpdateKind uint8

const (
	// InsertEdge adds edge (From, To) with weight W.
	InsertEdge UpdateKind = iota
	// DeleteEdge removes edge (From, To); W records the removed weight so
	// a batch can be reverted.
	DeleteEdge
)

// Update is a unit update ΔG: one edge insertion or deletion.
type Update struct {
	Kind     UpdateKind
	From, To NodeID
	W        int64
}

// String renders the update in +/-(u,v,w) form.
func (u Update) String() string {
	sign := "+"
	if u.Kind == DeleteEdge {
		sign = "-"
	}
	return fmt.Sprintf("%s(%d,%d,%d)", sign, u.From, u.To, u.W)
}

// Batch is a batch update: a sequence of unit updates applied in order.
type Batch []Update

// Size returns |ΔG|, the number of unit updates.
func (b Batch) Size() int { return len(b) }

// Inverse returns the batch that undoes b: the reverse sequence with each
// insertion turned into a deletion and vice versa.
func (b Batch) Inverse() Batch {
	inv := make(Batch, len(b))
	for i, u := range b {
		k := InsertEdge
		if u.Kind == InsertEdge {
			k = DeleteEdge
		}
		inv[len(b)-1-i] = Update{Kind: k, From: u.From, To: u.To, W: u.W}
	}
	return inv
}

// Apply applies the batch to g in order, computing G ⊕ ΔG in place, and
// returns the sub-batch that changed the graph, in order, as a fresh list:
// its Inverse reverts the application, and its deletions carry the weight
// of the edge that was removed. Re-inserting a present edge (in either
// orientation when undirected) and deleting an absent one are no-ops, and
// malformed updates — ids outside [0, NumNodes), self-loops, unknown
// kinds — are skipped without touching the rows, so arbitrary input
// reaching batch application is safe.
func (g *Graph) Apply(b Batch) Batch {
	return g.apply(make(Batch, 0, len(b)), b)
}

// apply applies b to g as Apply does, appending the updates that changed
// the graph to dst, and then compacts the adjacency if its dead space is
// due (Flat.MaybeCompact).
func (g *Graph) apply(dst, b Batch) Batch {
	for _, u := range b {
		switch u.Kind {
		case InsertEdge:
			if g.InsertEdge(u.From, u.To, u.W) {
				dst = append(dst, u)
			}
		case DeleteEdge:
			if w, ok := g.RemoveEdge(u.From, u.To); ok {
				dst = append(dst, Update{Kind: DeleteEdge, From: u.From, To: u.To, W: w})
			}
		}
	}
	g.adj.MaybeCompact(g)
	return dst
}

// Validate checks that the update is well-formed against a graph with n
// nodes: both endpoints in [0, n) and a weight in [0, Infinity). A negative
// n skips the upper node-id bound, validating only what is knowable without
// a graph (non-negative ids, the weight range) — the mode used by
// ReadBatch, where the target graph is not yet known.
func (u Update) Validate(n int) error {
	for _, v := range [2]NodeID{u.From, u.To} {
		if v < 0 {
			return fmt.Errorf("negative node id %d", v)
		}
		if n >= 0 && int(v) >= n {
			return fmt.Errorf("node %d out of range [0,%d)", v, n)
		}
	}
	return checkWeight(u.W)
}

// Validate checks every update in the batch against a graph with n nodes
// (see Update.Validate), reporting the index of the first offender. It is
// the gate a serving layer runs before handing ΔG to a maintainer, so
// malformed input fails fast instead of panicking deep inside repair code.
func (b Batch) Validate(n int) error {
	for i, u := range b {
		if err := u.Validate(n); err != nil {
			return fmt.Errorf("update %d %s: %w", i, u, err)
		}
	}
	return nil
}

// Net reduces the batch to its net effect per edge: G ⊕ Net(ΔG) equals
// G ⊕ ΔG for every graph G of the stated directedness, but churn
// (insert-then-delete, repeated operations) collapses to at most two
// updates per edge. The serving host nets each coalesced batch once, so
// its maintainers do no work on churn; the maintainers themselves take
// any sequence, netted or not. For undirected graphs, updates on (u, v)
// and (v, u) address the same edge and are collapsed together.
func (b Batch) Net(directed bool) Batch {
	type state uint8
	const (
		unknown     state = iota // no op seen yet
		insIfAbsent              // insert applied to unknown base state
		absent
		present
	)
	type pairFx struct {
		key uint64
		w   int64
		st  state
	}
	key := func(u, v NodeID) uint64 {
		if !directed && u > v {
			u, v = v, u
		}
		return pack(u, v)
	}
	// One state per distinct edge, by value and in first-seen order, which
	// is the output order; the map only finds an edge's state again.
	fx := make([]pairFx, 0, len(b))
	at := make(map[uint64]int32, len(b))
	for _, u := range b {
		k := key(u.From, u.To)
		i, seen := at[k]
		if !seen {
			i = int32(len(fx))
			at[k] = i
			fx = append(fx, pairFx{key: k})
		}
		p := &fx[i]
		switch u.Kind {
		case InsertEdge:
			switch p.st {
			case unknown:
				p.st, p.w = insIfAbsent, u.W
			case absent:
				p.st, p.w = present, u.W
				// insIfAbsent, present: duplicate insert is a no-op.
			}
		case DeleteEdge:
			p.st = absent
		}
	}
	out := make(Batch, 0, len(fx))
	for _, p := range fx {
		u, v := NodeID(p.key>>32), NodeID(uint32(p.key))
		switch p.st {
		case insIfAbsent:
			out = append(out, Update{Kind: InsertEdge, From: u, To: v, W: p.w})
		case absent:
			out = append(out, Update{Kind: DeleteEdge, From: u, To: v})
		case present:
			// The edge may have existed with a different weight: replace it.
			out = append(out, Update{Kind: DeleteEdge, From: u, To: v},
				Update{Kind: InsertEdge, From: u, To: v, W: p.w})
		}
	}
	return out
}
