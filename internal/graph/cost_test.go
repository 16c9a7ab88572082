package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// trickleShaped builds the shape of the benchmark's largest graph: n nodes
// attached preferentially, deg/2 undirected edges each, weights 1..100.
func trickleShaped(n, deg int) *Graph {
	rng := rand.New(rand.NewSource(20210620))
	g := New(n, false)
	ends := make([]NodeID, 0, deg*n) // every endpoint once: a degree-proportional draw
	for v := 1; v < n; v++ {
		for k := 0; k < deg/2; k++ {
			t := NodeID(rng.Intn(v))
			if len(ends) > 0 && k > 0 {
				t = ends[rng.Intn(len(ends))]
			}
			if g.InsertEdge(NodeID(v), t, int64(rng.Intn(100))+1) {
				ends = append(ends, NodeID(v), t)
			}
		}
	}
	return g
}

// TestGraphBytesPerHalfEdge holds the heap a Graph occupies to its rows:
// 16 B an entry plus the slack append leaves and a slice header per node —
// about 25 B per half-edge at degree 8, where the position index this type
// used to carry made it about 49. An index that comes back has to come
// back through this number.
func TestGraphBytesPerHalfEdge(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := trickleShaped(100000, 8)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perHalf := float64(after.HeapAlloc-before.HeapAlloc) / float64(2*g.NumEdges())
	t.Logf("%d nodes, %d edges: %.1f B per half-edge", g.NumNodes(), g.NumEdges(), perHalf)
	if perHalf > 30 {
		t.Fatalf("a Graph of %d nodes and %d edges holds %.1f B per half-edge, want at most 30", g.NumNodes(), g.NumEdges(), perHalf)
	}
	runtime.KeepAlive(g)
}

// BenchmarkEdgeOpsByDegree deletes and reinserts one edge at a hub of
// degree d: the table in Graph's comment. The graph is many stars — a
// million edges in all, whatever d is — and every operation picks a star
// and a leaf at random, so the hub's row is cold when it is scanned. "map"
// is the same on the position-indexed reference, the cost the scan is
// weighed against.
func BenchmarkEdgeOpsByDegree(b *testing.B) {
	const edges = 1000000
	type ops struct {
		name     string
		build    func(n int)
		ins, del func(u, v NodeID) bool
	}
	var g *Graph
	var m *mapGraph
	for _, impl := range []ops{
		{"scan", func(n int) { g, m = New(n, false), nil },
			func(u, v NodeID) bool { return g.InsertEdge(u, v, 1) },
			func(u, v NodeID) bool { return g.DeleteEdge(u, v) }},
		{"map", func(n int) { g, m = nil, newMapGraph(n, false) },
			func(u, v NodeID) bool { return m.InsertEdge(u, v, 1) },
			func(u, v NodeID) bool { return m.DeleteEdge(u, v) }},
	} {
		for _, d := range []int{10, 100, 1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/d=%d", impl.name, d), func(b *testing.B) {
				stars := edges / d
				impl.build(stars * (d + 1))
				for s := 0; s < stars; s++ {
					hub := NodeID(s * (d + 1))
					for k := 1; k <= d; k++ {
						impl.ins(hub, hub+NodeID(k))
					}
				}
				rng := rand.New(rand.NewSource(1))
				picks := make([][2]NodeID, 1<<14)
				for i := range picks {
					hub := NodeID(rng.Intn(stars) * (d + 1))
					picks[i] = [2]NodeID{hub, hub + 1 + NodeID(rng.Intn(d))}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := picks[i%len(picks)]
					if !impl.del(p[0], p[1]) || !impl.ins(p[0], p[1]) {
						b.Fatalf("edge (%d,%d) was not there", p[0], p[1])
					}
				}
			})
		}
	}
}

// BenchmarkRead parses the text form of the benchmark's largest graph
// (100k nodes, degree 8: trickle's input file), the cold start of a daemon;
// "sscanf" is the reader Read replaced, FuzzRead's reference.
func BenchmarkRead(b *testing.B) {
	var file bytes.Buffer
	want := trickleShaped(100000, 8)
	if _, err := want.WriteTo(&file); err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		read func(io.Reader) (*Graph, error)
	}{{"bytes", Read}, {"sscanf", readSscanf}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(file.Len()))
			for i := 0; i < b.N; i++ {
				g, err := impl.read(bytes.NewReader(file.Bytes()))
				if err != nil || g.NumEdges() != want.NumEdges() {
					b.Fatalf("%v", err)
				}
			}
		})
	}
}

// BenchmarkReadBinary decodes a checkpoint's graph blob of the durable
// workload's shape (20k nodes, degree 16), the half of a kill -9 recovery
// that is not the WAL tail; "stream" is the decoder ReadBinary replaced,
// FuzzReadBinary's reference.
func BenchmarkReadBinary(b *testing.B) {
	var blob bytes.Buffer
	want := trickleShaped(20000, 16)
	if err := want.WriteBinary(&blob); err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		read func(io.Reader) (*Graph, error)
	}{{"blob", ReadBinary}, {"stream", readBinaryStream}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(blob.Len()))
			for i := 0; i < b.N; i++ {
				g, err := impl.read(bytes.NewReader(blob.Bytes()))
				if err != nil || g.NumEdges() != want.NumEdges() {
					b.Fatalf("%v", err)
				}
			}
		})
	}
}

// BenchmarkNet nets a batch of burst's size (400 updates over 6,000 nodes,
// a few of them churn on one edge): a POST pays it once for the host and
// once per maintainer.
func BenchmarkNet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, 6000, 400)
	copy(batch[390:], batch[:10]) // the same edge again
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if net := batch.Net(false); len(net) < 390 {
			b.Fatalf("%d net updates", len(net))
		}
	}
}
