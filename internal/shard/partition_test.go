package shard

import (
	"math/rand"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func TestHashPartitionerRangeAndBalance(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		p := NewHashPartitioner(n)
		counts := make([]int, n)
		for v := 0; v < 10000; v++ {
			o := p.Owner(graph.NodeID(v))
			if o < 0 || o >= n {
				t.Fatalf("owner(%d) = %d out of [0,%d)", v, o, n)
			}
			counts[o]++
		}
		// The multiplicative hash should spread ids roughly evenly: no
		// shard more than 2x its fair share.
		for i, c := range counts {
			if n > 1 && c > 2*10000/n {
				t.Fatalf("shards=%d: shard %d owns %d of 10000", n, i, c)
			}
		}
	}
}

func TestNewPartitioner(t *testing.T) {
	if _, err := NewPartitioner("hash", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitioner("", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitioner("range", 2); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := NewPartitioner("hash", 0); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestSplitBatchCoverage: every update lands in its owning shard(s), in
// order, and nowhere else — directed updates exactly once, undirected
// cut updates once per endpoint owner.
func TestSplitBatchCoverage(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(42))
		g := gen.PowerLaw(rng, 200, 6, directed)
		b := gen.RandomUpdates(rng, g, 300, 0.5)
		p := NewHashPartitioner(3)
		parts := SplitBatch(p, directed, b)
		if len(parts) != 3 {
			t.Fatalf("got %d sub-batches", len(parts))
		}
		total := 0
		for id, sb := range parts {
			total += len(sb)
			for _, u := range sb {
				if !OwnsEdge(p, directed, id, u.From, u.To) {
					t.Fatalf("directed=%v: shard %d received unowned update %v", directed, id, u)
				}
			}
		}
		want := 0
		for _, u := range b {
			want++
			if !directed && IsCut(p, u.From, u.To) {
				want++ // duplicated to the second endpoint owner
			}
		}
		if total != want {
			t.Fatalf("directed=%v: split carries %d updates, want %d", directed, total, want)
		}
		// Relative order inside each sub-batch matches the original batch.
		for id, sb := range parts {
			idx := 0
			for _, u := range b {
				if idx < len(sb) && sb[idx] == u {
					idx++
				}
			}
			if idx != len(sb) {
				t.Fatalf("shard %d sub-batch is not an ordered subsequence", id)
			}
		}
	}
}

// TestFilterGraphUnion: the fragments jointly hold every edge of the
// full graph, each fragment holds only owned edges, and node count,
// directedness, and labels are preserved.
func TestFilterGraphUnion(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(7))
		g := gen.PowerLaw(rng, 150, 5, directed)
		gen.AssignLabels(rng, g, 4)
		p := NewHashPartitioner(3)

		type edge struct {
			u, v graph.NodeID
			w    int64
		}
		edges := func(gr *graph.Graph) map[edge]bool {
			m := make(map[edge]bool)
			gr.Edges(func(u, v graph.NodeID, w int64) { m[edge{u, v, w}] = true })
			return m
		}
		full := edges(g)
		union := make(map[edge]bool)
		for id := 0; id < p.Shards(); id++ {
			f := FilterGraph(g, p, id)
			if f.NumNodes() != g.NumNodes() || f.Directed() != directed {
				t.Fatalf("fragment shape drifted: nodes %d directed %v", f.NumNodes(), f.Directed())
			}
			for v := 0; v < f.NumNodes(); v++ {
				if f.Label(graph.NodeID(v)) != g.Label(graph.NodeID(v)) {
					t.Fatalf("label of %d not preserved", v)
				}
			}
			for e := range edges(f) {
				if !full[e] {
					t.Fatalf("fragment %d invented edge %v", id, e)
				}
				if !OwnsEdge(p, directed, id, e.u, e.v) {
					t.Fatalf("fragment %d holds unowned edge %v", id, e)
				}
				union[e] = true
			}
		}
		if len(union) != len(full) {
			t.Fatalf("directed=%v: union of fragments has %d edges, full graph %d", directed, len(union), len(full))
		}
	}
}

// TestSplitApplyEquivalence: applying each sub-batch to its fragment
// yields exactly the fragments of the updated full graph — the
// invariant that keeps shards consistent as the stream evolves.
func TestSplitApplyEquivalence(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(11))
		g := gen.PowerLaw(rng, 120, 5, directed)
		p := NewHashPartitioner(2)
		frags := make([]*graph.Graph, p.Shards())
		for id := range frags {
			frags[id] = FilterGraph(g, p, id)
		}
		for round := 0; round < 10; round++ {
			b := gen.RandomUpdates(rng, g, 40, 0.5)
			for id, sb := range SplitBatch(p, directed, b) {
				frags[id].Apply(sb)
			}
			g.Apply(b)
			for id := range frags {
				want := FilterGraph(g, p, id)
				if got, expect := graphEdgeCount(frags[id]), graphEdgeCount(want); got != expect {
					t.Fatalf("directed=%v round %d shard %d: fragment has %d edges, want %d",
						directed, round, id, got, expect)
				}
			}
		}
	}
}

func graphEdgeCount(g *graph.Graph) int { return g.NumEdges() }

// BenchmarkFilterGraph extracts one shard's fragment on the cluster
// workload's shape (3,000 nodes, average degree 16, two hash shards): the
// graph build of a shard daemon's start, one pass over the sorted rows.
func BenchmarkFilterGraph(b *testing.B) {
	g := gen.PowerLaw(rand.New(rand.NewSource(1)), 3000, 16, false)
	p := NewHashPartitioner(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FilterGraph(g, p, i%2)
	}
}
