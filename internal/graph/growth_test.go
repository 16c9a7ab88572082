package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/gen"
)

// TestBuildByInsertCompactions: a graph built edge by edge from New grows
// its arrays when they are full and compaction would free little, instead
// of compacting them to the same capacity again and again. gen.PowerLaw
// inserts trickle's 100,000 nodes and 399,990 edges one by one in 12
// compactions (undirected) and 6 (directed); compacting whenever the
// arrays are full took 108 and 82.
func TestBuildByInsertCompactions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 100,000-node graphs")
	}
	for _, directed := range []bool{false, true} {
		g := gen.PowerLaw(rand.New(rand.NewSource(1)), 100000, 8, directed)
		if c := g.Flat().Compactions(); c > 20 {
			t.Errorf("directed=%v: %d compactions building %d edges by insertion, want at most 20", directed, c, g.NumEdges())
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkBuildByInsert builds gen.PowerLaw graphs edge by edge from New,
// the way the generators, the examples and the benchmark harness's own
// inputs are built: the growth path of the adjacency's arrays.
func BenchmarkBuildByInsert(b *testing.B) {
	for _, n := range []int{3000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var compactions int64
			for i := 0; i < b.N; i++ {
				g := gen.PowerLaw(rand.New(rand.NewSource(1)), n, 8, false)
				compactions += g.Flat().Compactions()
			}
			b.ReportMetric(float64(compactions)/float64(b.N), "compactions/op")
		})
	}
}
