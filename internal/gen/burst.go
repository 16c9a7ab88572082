package gen

import (
	"math/rand"

	"incgraph/internal/graph"
)

// The repository benchmark's burst workload, in shape: a power-law graph
// of 6,000 nodes and average degree 27, fed 400-update batches.
const (
	BurstNodes = 6000
	BurstDeg   = 27
	BurstBatch = 400
)

// BurstGraph builds the burst-shaped undirected graph; every call returns
// the same graph.
func BurstGraph() *graph.Graph {
	return PowerLaw(rand.New(rand.NewSource(20210620)), BurstNodes, BurstDeg, false)
}

// BurstStream generates batches the way the burst workload's writer does:
// half of the unit updates delete an edge the graph has, half put back one
// deleted earlier (a fresh random edge while there is none), so no update
// is a no-op and the graph keeps its shape however long the stream runs.
// A seed and a graph determine the stream.
type BurstStream struct {
	rng            *rand.Rand
	mirror         *graph.Graph
	edges, removed []graph.Update
}

// NewBurstStream starts a stream against g as it is now. It keeps its own
// copy, so the caller applies the batches to g (or hands g to a
// maintainer) itself.
func NewBurstStream(seed int64, g *graph.Graph) *BurstStream {
	s := &BurstStream{rng: rand.New(rand.NewSource(seed)), mirror: g.Clone()}
	g.Edges(func(u, v graph.NodeID, w int64) {
		s.edges = append(s.edges, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w})
	})
	return s
}

func (s *BurstStream) take(es *[]graph.Update) graph.Update {
	k := s.rng.Intn(len(*es))
	e := (*es)[k]
	(*es)[k] = (*es)[len(*es)-1]
	*es = (*es)[:len(*es)-1]
	return e
}

// Next returns the stream's next batch of size unit updates.
func (s *BurstStream) Next(size int) graph.Batch {
	b := make(graph.Batch, 0, size)
	n := s.mirror.NumNodes()
	for len(b) < size {
		if s.rng.Intn(2) == 0 && len(s.edges) > 0 {
			e := s.take(&s.edges)
			s.removed = append(s.removed, e)
			s.mirror.DeleteEdge(e.From, e.To)
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: e.From, To: e.To})
			continue
		}
		e := graph.Update{Kind: graph.InsertEdge, From: graph.NodeID(s.rng.Intn(n)), To: graph.NodeID(s.rng.Intn(n)), W: 1}
		if len(s.removed) > 0 {
			e = s.take(&s.removed)
		}
		if s.mirror.InsertEdge(e.From, e.To, e.W) {
			s.edges = append(s.edges, e)
			b = append(b, e)
		}
	}
	return b
}
