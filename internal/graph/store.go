package graph

import "fmt"

// A Graph is the one store every maintainer built on it shares: beside its
// one adjacency it keeps a round counter and the last round's applied
// updates. Each round has one writer — the service's apply loop, a
// recovery's replay, or a maintainer used alone — which applies the batch
// to the graph once (Advance); every maintainer, keeping its own state
// and the last round it took, then takes the round's applied list (Take).
//
// One adjacency: every reader — the maintainers' repairs, the batch runs
// and oracles, the certificates and references, the generators and the
// codecs — reads the graph's own sorted rows, through Flat. A certificate
// that checks a state a recovery repaired reads the rows the repair read;
// the mapGraph reference in this package's tests holds the rows
// themselves to an independent implementation.

// Flat returns the graph's adjacency, which every maintainer of g reads:
// Apply, Advance, InsertEdge and DeleteEdge edit it in place. Reading it
// never writes, so readers may share it side by side between edits.
func (g *Graph) Flat() *Flat { return &g.adj }

// Round returns the number of batches Advance has applied to g.
func (g *Graph) Round() uint64 { return g.round }

// Advance applies b to g as its next round and returns the applied
// updates: what Apply would return for b, in a list the store owns and
// reuses, so valid until the next round. Once the list and the
// adjacency's arrays have room for the rounds a workload brings, a round
// allocates nothing (TestAdvanceZeroAlloc).
func (g *Graph) Advance(b Batch) Batch {
	g.applied = g.apply(g.applied[:0], b)
	g.round++
	return g.applied
}

// Take moves a reader that has taken round *seen of g on to g's newest
// round and returns its applied updates. It panics unless the reader is
// exactly one round behind: one that skipped a round, or takes one twice,
// would repair from the wrong updates.
func (g *Graph) Take(seen *uint64) Batch {
	if *seen+1 != g.round {
		panic(fmt.Sprintf("graph: a reader at round %d cannot take the round of a graph at round %d", *seen, g.round))
	}
	*seen = g.round
	return g.applied
}
