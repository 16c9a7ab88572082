package graph

import "fmt"

// A Graph is the one store every maintainer built on it shares: beside the
// rows it keeps one Flat view and a round counter. Each round has one
// writer — the service's apply loop, a recovery's replay, or a maintainer
// used alone — which applies the batch to the rows and stages it into the
// Flat once (Advance); every maintainer, keeping its own state and the
// last round it took, then takes the round's applied list (Take). A Graph
// nobody advances (an oracle, a batch run's input, a clone) pays for
// neither: the Flat is built by the first call to Flat.
//
// Which copy a reader reads: repairs read a Flat, checks read the rows.
// Every maintainer that repairs a served class's round (the six Incs,
// sim.IncMatch, dfs.DynDFS) and the shard eval read only their store's
// Flat, degrees and ‖AFF‖ charges included, and the batch runs that order
// rows (Simfp, dfs.Run, lcc.Run, bc.Run) a fresh NewFlat. The batch
// oracles (Dijkstra, CCfp), certificates and references read the rows: a
// certificate reading a Flat a recovery staged would share its layout with
// what it checks. So do the generators, whose streams follow row order,
// the codecs, and the engine forms and competitors no service holds.

// Flat returns the view every maintainer of g reads, building it on the
// first call; every later Advance stages its round into it. The view is
// whole even after a stage that panicked: it is laid out again from the
// rows first. Once the view is built and whole, Flat only reads g, so the
// batch runs of a start may call it side by side.
func (g *Graph) Flat() *Flat {
	if g.flat == nil {
		g.flat = NewFlat(g)
	} else if g.torn {
		g.flat.Compact(g)
		g.torn = false
	}
	return g.flat
}

// Relayout lays the Flat view out again from the rows, if a reader has
// one, so that a batch rerun over it reads what the rows hold rather than
// what staging made of them. A view nothing was staged into since it was
// last laid out already is what the rows hold, and is left as it is: the
// classes a recovery or a start reruns one after another pay for one
// layout between them.
func (g *Graph) Relayout() {
	if g.flat != nil && !g.flat.laidOut {
		g.flat.Compact(g)
		g.torn = false
	}
}

// Staged returns the Flat view if a reader has asked for one (Flat), and
// nil otherwise: what an observer reads without building one.
func (g *Graph) Staged() *Flat { return g.flat }

// Round returns the number of batches Advance has applied to g.
func (g *Graph) Round() uint64 { return g.round }

// Advance applies b to g as its next round, stages the applied updates
// into the Flat view if one is built, compacting it when due, and returns
// them: what Apply would return for b, in a list the store owns and
// reuses, so valid until the next round. Once the list, the rows and the
// Flat's arrays have room for the rounds a workload brings, a round
// allocates nothing (TestAdvanceZeroAlloc). A stage that panics leaves the
// round taken — the rows and the applied list are whole, since Apply never
// panics — and the Flat torn; it is laid out again from the rows before
// anyone reads it through Flat.
func (g *Graph) Advance(b Batch) Batch {
	g.applied = g.apply(g.applied[:0], b)
	g.round++
	if g.flat != nil {
		g.torn = true
		g.flat.Stage(g, g.applied)
		g.flat.MaybeCompact(g)
		g.torn = false
	}
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
