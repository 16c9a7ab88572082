package cc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// restored is a Blank maintainer of g with state (labels, ts, clock)
// restored into it, as a recovery builds one.
func restored(t testing.TB, g *graph.Graph, labels, ts []int64, clock int64) *Inc {
	t.Helper()
	i := Blank(g)
	if err := i.RestoreState(labels, ts, clock); err != nil {
		t.Fatal(err)
	}
	return i
}

// TestCertifyMutations: cc's certificate, fixpoint.CheckOrder over the
// graph's rows, accepts the batch run's state and rejects a label 1 too
// low, two components under one label, two stamps swapped and a clock
// below a stamp. The last two leave every label right: a recompute that
// compares labels cannot see them, yet the next Apply's h reads the
// stamps.
func TestCertifyMutations(t *testing.T) {
	// The path 0 – 1 – 2 – 3 and the edge 4 – 5: the batch run stamps 1,
	// 2 and 3 in that order, each from the one before it, and 5 from 4.
	g := graph.New(6, false)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}} {
		g.InsertEdge(e[0], e[1], 1)
	}
	labels, ts, clock := NewInc(g).ExportState()
	if err := restored(t, g, labels, ts, clock).Certify(); err != nil {
		t.Fatalf("the batch run's state: %v", err)
	}
	for _, tc := range []struct {
		name, want string // want: the clause that fails
		edit       func(labels, ts []int64, clock *int64)
	}{
		{"label 1 too low", "not a fixpoint", func(l, _ []int64, _ *int64) { l[5]-- }},
		{"two components under one label", "not well-founded", func(l, _ []int64, _ *int64) { l[4], l[5] = 0, 0 }},
		{"two stamps swapped", "not well-founded", func(_, ts []int64, _ *int64) { ts[1], ts[3] = ts[3], ts[1] }},
		{"clock below a stamp", "after the clock", func(_, _ []int64, c *int64) { *c-- }},
	} {
		l, s, c := slices.Clone(labels), slices.Clone(ts), clock
		tc.edit(l, s, &c)
		if err := restored(t, g, l, s, c).Certify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Certify of labels %v, stamps %v, clock %d = %v, want %q", tc.name, l, s, c, err, tc.want)
		}
	}
}

// TestCertifyProperty: on random graphs, directed and not, the certificate
// accepts what Inc maintains — at its batch run and after each of several
// random batches, when the labels are also CCfp's — and rejects it with
// any one label moved by 1 either way.
func TestCertifyProperty(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		g := graph.New(n, directed)
		for i := 0; i < 50; i++ {
			g.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1)
		}
		inc := NewInc(g)
		for round := 0; round < 5; round++ {
			if round > 0 {
				inc.Apply(gen.RandomUpdates(rng, g, 10, 0.5))
			}
			if err := inc.Certify(); err != nil || !slices.Equal(inc.Labels(), CCfp(g)) {
				t.Logf("seed %d round %d: %v, labels %v, want %v", seed, round, err, inc.Labels(), CCfp(g))
				return false
			}
			labels, ts, clock := inc.ExportState()
			v := rng.Intn(n)
			for _, by := range []int64{-1, 1} {
				l := slices.Clone(labels)
				l[v] += by
				if restored(t, g, l, ts, clock).Certify() == nil {
					t.Logf("seed %d round %d: accepted node %d's label moved by %d to %d", seed, round, v, by, l[v])
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

// incSink keeps the benchmarked batch runs' results alive.
var incSink *Inc

// BenchmarkBatchRun is cc's batch run on the durable workload's graph,
// over its laid-out Flat view: what a recovery verified by recompute pays
// for cc (Recompute builds the maintainer again with NewInc).
func BenchmarkBatchRun(b *testing.B) {
	g := durableShape()
	g.Flat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		incSink = NewInc(g)
	}
}

// BenchmarkCheckOrder is the certificate that replaces that batch run —
// fixpoint.CheckOrder over the graph's rows — on the same graph and the
// batch run's state.
func BenchmarkCheckOrder(b *testing.B) {
	g := durableShape()
	inc := NewInc(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inc.Certify(); err != nil {
			b.Fatal(err)
		}
	}
}
