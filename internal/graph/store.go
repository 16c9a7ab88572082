package graph

import "fmt"

// A Graph is the one store every maintainer built on it shares: beside the
// rows it keeps one Flat view and a round counter, so that each batch is
// applied to the rows, staged into the Flat and maybe compacted once, by
// whichever maintainer reaches it first, and the others take that
// maintainer's applied list. A maintainer keeps its own state and the last
// round it took; a lone one advances its own graph on the same path. A
// Graph nobody advances (an oracle, a batch run's input, a clone) pays for
// neither: the Flat is built by the first call to Flat.

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

// Advance moves a reader that has taken round *seen of g on to the next
// round, and returns that round's applied updates: what Apply returned for
// its batch, valid until the round after. If g is at round *seen, the
// reader is the first to get there: g applies b as the next round and
// stages the applied updates into its Flat, compacting it when due. If g
// is one round ahead, it took the round already, and b — which must be the
// round's batch — is not read. Anything else panics: a reader is never
// more than one round behind its graph.
//
// A stage that panics leaves the round taken — the rows and the applied
// list are whole, since Apply never panics — and the Flat torn; it is laid
// out again from the rows before anyone reads it (Flat, or the next
// reader's Advance).
func (g *Graph) Advance(seen *uint64, b Batch) Batch {
	switch *seen {
	case g.round:
		g.applied = g.Apply(b)
		g.round++
		if g.flat != nil {
			g.torn = true
			g.flat.Stage(g, g.applied)
			g.flat.MaybeCompact(g)
			g.torn = false
		}
	case g.round - 1:
		if g.torn {
			g.Flat()
		}
	default:
		panic(fmt.Sprintf("graph: a reader at round %d cannot advance a graph at round %d", *seen, g.round))
	}
	*seen = g.round
	return g.applied
}
