package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"incgraph/internal/alloctest"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// TestAdvanceZeroAlloc: a store whose applied list and adjacency arrays
// have room for a workload's rounds allocates nothing per Advance, at
// |ΔG| = 1, 8 and 64 on the burst graph. The rounds alternate a burst
// batch and its inverse, so every round finds the room the last two used.
func TestAdvanceZeroAlloc(t *testing.T) {
	for _, size := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			g := gen.BurstGraph()
			b := gen.NewBurstStream(1, g).Next(size)
			applied := slices.Clone(g.Advance(b))
			inv := applied.Inverse()
			g.Advance(inv) // warm-up: the store's list holds a round
			alloctest.Zero(t, func(measure func(func())) {
				for round := 0; round < 20; round++ {
					var got graph.Batch
					measure(func() { got = g.Advance(b) })
					if !slices.Equal(got, applied) {
						t.Fatalf("round %d applied %v, want %v", round, got, applied)
					}
					measure(func() { g.Advance(inv) })
				}
			})
			if err := g.CheckConsistent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkAdvance times one round of the store on the burst graph at
// |ΔG| = 1, 8 and 64: Apply into the reused applied list, the edits of
// the sorted rows and, when due, a compaction. The rounds alternate a
// burst batch and its inverse, as in TestAdvanceZeroAlloc.
func BenchmarkAdvance(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			g := gen.BurstGraph()
			batch := gen.NewBurstStream(1, g).Next(size)
			inv := slices.Clone(g.Advance(batch)).Inverse()
			g.Advance(inv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					g.Advance(batch)
				} else {
					g.Advance(inv)
				}
			}
		})
	}
}
