package lcc

import (
	"math/rand"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// The repository benchmark's burst workload, in shape: a power-law graph
// of 6,000 nodes and average degree 27, fed 400-update batches.
const (
	burstNodes = 6000
	burstDeg   = 27
	burstBatch = 400
)

// burstStream generates batches the way the burst workload's writer does:
// half of the unit updates delete an edge the graph has, half put back one
// deleted earlier (a fresh random edge while there is none), so no update
// is a no-op and the graph keeps its shape however long the stream runs.
type burstStream struct {
	rng            *rand.Rand
	mirror         *graph.Graph
	edges, removed []graph.Update
}

func newBurstStream(seed int64, g *graph.Graph) *burstStream {
	s := &burstStream{rng: rand.New(rand.NewSource(seed)), mirror: g.Clone()}
	g.Edges(func(u, v graph.NodeID, w int64) {
		s.edges = append(s.edges, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w})
	})
	return s
}

func (s *burstStream) take(es *[]graph.Update) graph.Update {
	k := s.rng.Intn(len(*es))
	e := (*es)[k]
	(*es)[k] = (*es)[len(*es)-1]
	*es = (*es)[:len(*es)-1]
	return e
}

func (s *burstStream) next(size int) graph.Batch {
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

func burstGraph() *graph.Graph {
	return gen.PowerLaw(rand.New(rand.NewSource(20210620)), burstNodes, burstDeg, false)
}

// BenchmarkIncBurst times one IncLCC apply of a burst-shaped batch.
func BenchmarkIncBurst(b *testing.B) {
	g := burstGraph()
	s := newBurstStream(1, g)
	inc := NewInc(g)
	batches := make([]graph.Batch, b.N)
	for k := range batches {
		batches[k] = s.next(burstBatch)
	}
	pe := 0
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		pe += inc.Apply(batch)
	}
	b.ReportMetric(float64(pe)/float64(b.N), "recounted/op")
}

// BenchmarkRunBurst times the batch algorithm on the burst graph.
func BenchmarkRunBurst(b *testing.B) {
	g := burstGraph()
	b.ReportAllocs()
	for range b.N {
		sink = Run(g)
	}
}

var sink *Result
