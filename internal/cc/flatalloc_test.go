package cc

import (
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// TestFlatRowZeroAlloc guards the steady-state inner loop of the flat
// core: once the engine and its row buffer are warm, an incremental run
// over the uniform (DependentRow) path must not allocate. Regressions
// here — a map lookup creeping back in, a buffer that stops being
// reused — show up as a nonzero allocation count, not as a slow bench.
func TestFlatRowZeroAlloc(t *testing.T) {
	g := graph.New(64, false)
	for v := 1; v < 64; v++ {
		g.InsertEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
		g.InsertEdge(graph.NodeID(v), graph.NodeID((v*7)%64), 1)
	}
	i := NewInc(g)

	// Warm up: grows rowBuf and the worklist to their steady sizes.
	seeds := []fixpoint.Var{5, 40}
	i.eng.IncrementalRunDelta(nil, seeds)

	if n := testing.AllocsPerRun(100, func() {
		i.eng.IncrementalRunDelta(nil, seeds)
	}); n != 0 {
		t.Errorf("uniform row-path incremental run: %v allocs, want 0", n)
	}
}
