package graph_test

import (
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// BenchmarkFlatStage edits one burst batch (gen.BurstBatch updates on
// gen.BurstGraph) into a Flat, compactions included: graph.flat_stage_us
// and graph.flat_compact_ms of the traced benchmark, together.
func BenchmarkFlatStage(b *testing.B) {
	g := gen.BurstGraph()
	s := gen.NewBurstStream(1, g)
	f := graph.NewFlat(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		applied := g.Apply(s.Next(gen.BurstBatch).Net(false))
		b.StartTimer()
		f.Stage(g, applied)
		f.MaybeCompact(g)
	}
	b.ReportMetric(float64(f.Compactions())/float64(b.N), "compactions/op")
}

// BenchmarkFlatScan reads every row of a Flat that has taken 300 burst
// batches, as a repair's row loops do: graph.flat_scan_ns_per_edge.
func BenchmarkFlatScan(b *testing.B) {
	g := gen.BurstGraph()
	s := gen.NewBurstStream(1, g)
	f := graph.NewFlat(g)
	for i := 0; i < 300; i++ {
		f.Stage(g, g.Apply(s.Next(gen.BurstBatch).Net(false)))
		f.MaybeCompact(g)
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < g.NumNodes(); u++ {
			ts, ws, _, _ := f.OutSpans(graph.NodeID(u))
			for k := range ts {
				sink += ws[k]
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(2*g.NumEdges()), "ns/edge")
	scanSink = sink
}

var scanSink int64
