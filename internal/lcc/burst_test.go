package lcc

import (
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// BenchmarkIncBurst times one IncLCC apply of a burst-shaped batch.
func BenchmarkIncBurst(b *testing.B) {
	g := gen.BurstGraph()
	s := gen.NewBurstStream(1, g)
	inc := NewInc(g)
	batches := make([]graph.Batch, b.N)
	for k := range batches {
		batches[k] = s.Next(gen.BurstBatch)
	}
	pe := 0
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		pe += inc.Apply(batch)
	}
	b.ReportMetric(float64(pe)/float64(b.N), "scope/op")
}

// BenchmarkRunBurst times the batch algorithm on the burst graph.
func BenchmarkRunBurst(b *testing.B) {
	g := gen.BurstGraph()
	b.ReportAllocs()
	for range b.N {
		sink = Run(g)
	}
}

var sink *Result
