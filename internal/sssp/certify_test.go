package sssp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// TestCertifyMutations: the certificate accepts Dijkstra's distances and
// rejects each way a vector can be wrong — the last clause the one a
// zero-weight cycle held below its distance, every edge on it tight,
// fails.
func TestCertifyMutations(t *testing.T) {
	// 0 →5→ 1 ⇄0⇄ 2 →1→ 3 and 0 →2→ 4 →7→ 3, node 5 unreachable:
	// distances 0, 5, 5, 6, 2, ∞.
	g := graph.New(6, true)
	for _, e := range [][3]int64{{0, 1, 5}, {1, 2, 0}, {2, 1, 0}, {2, 3, 1}, {0, 4, 2}, {4, 3, 7}} {
		g.InsertEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2])
	}
	dist := Dijkstra(g, 0)
	if !slices.Equal(dist, []int64{0, 5, 5, 6, 2, Infinity}) {
		t.Fatalf("Dijkstra: %v", dist)
	}
	if err := Certify(g, 0, dist); err != nil {
		t.Fatalf("Dijkstra's distances: %v", err)
	}
	const reached, relaxed, bounds, source = "not reached", "not relaxed", "outside", "source"
	for _, tc := range []struct {
		name, want string // want: the clause that fails
		edit       func(d []int64)
	}{
		{"value 1 too low", reached, func(d []int64) { d[4]-- }},
		{"zero-weight cycle below its distance", reached, func(d []int64) { d[1], d[2], d[3] = 3, 3, 4 }},
		{"value 1 too high", relaxed, func(d []int64) { d[3]++ }},
		{"reachable node at Infinity", relaxed, func(d []int64) { d[4] = Infinity }},
		{"unreachable node finite", reached, func(d []int64) { d[5] = 9 }},
		{"source off 0", source, func(d []int64) { d[0] = 1 }},
		{"negative distance", bounds, func(d []int64) { d[5] = -1 }},
		{"distance past Infinity", bounds, func(d []int64) { d[5] = Infinity + 1 }},
	} {
		d := slices.Clone(dist)
		tc.edit(d)
		if err := Certify(g, 0, d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Certify(%v) = %v, want %q", tc.name, d, err, tc.want)
		}
	}
	if err := Certify(g, 0, dist[:5]); err == nil {
		t.Error("Certify accepted 5 distances for 6 nodes")
	}
}

// TestCertifyProperty: on random graphs, directed and not, with zero
// weights, the certificate accepts what Inc maintains — at its batch run
// and after each of several random batches — and rejects it with any one
// finite distance moved by 1 either way.
func TestCertifyProperty(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		g := graph.New(n, directed)
		for i := 0; i < 100; i++ {
			g.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), int64(rng.Intn(4)))
		}
		inc := NewInc(g, 0)
		for round := 0; round < 5; round++ {
			if round > 0 {
				inc.Apply(gen.RandomUpdates(rng, g, 10, 0.5))
			}
			if err := inc.Certify(); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
			v := 1 + rng.Intn(n-1)
			if inc.Dist()[v] >= Infinity {
				continue
			}
			for _, by := range []int64{-1, 1} {
				d := slices.Clone(inc.Dist())
				d[v] += by
				if Certify(g, 0, d) == nil {
					t.Logf("seed %d round %d: accepted node %d moved by %d to %d", seed, round, v, by, d[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// durableShape is the durable workload's graph: 20,000 nodes of a
// power-law graph of average degree 16, undirected.
func durableShape() *graph.Graph { return gen.Synthetic(1, 20000, 16, false) }

// distSink keeps the benchmarked batch runs' results alive.
var distSink []int64

// BenchmarkDijkstra is SSSP's batch run on the durable workload's graph,
// what a recovery verified by recompute pays for sssp, and on a graph of
// the trickle workload's shape (100,000 nodes of average degree 8), what
// a cold start of that size pays.
func BenchmarkDijkstra(b *testing.B) {
	for _, shape := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"durable", durableShape},
		{"trickle", func() *graph.Graph { return gen.Synthetic(1, 100000, 8, false) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			g := shape.g()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				distSink = Dijkstra(g, 0)
			}
		})
	}
}

// BenchmarkCertify is the certificate that replaces that batch run, on the
// same graph and its distances.
func BenchmarkCertify(b *testing.B) {
	g := durableShape()
	dist := Dijkstra(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Certify(g, 0, dist); err != nil {
			b.Fatal(err)
		}
	}
}
