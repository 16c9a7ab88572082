package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
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

// TestGraphBytesPerHalfEdge holds the heap a Graph occupies to its one
// adjacency: 12 B an entry in the sorted rows, plus a span per node and,
// on a graph built edge by edge as this one is, the room moved rows left
// behind and the arrays' growth — about 21 B per half-edge at degree 8,
// where the unordered rows beside a Flat made it about 25 for the rows
// alone and a position index on top about 49. An index or a second copy
// that comes back has to come back through this number.
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

// TestReadAllocatesOneLayout holds Read of trickle's graph to one
// adjacency layout: what it allocates may be the text, the chunks' edge
// lists and the layout the graph keeps, with 15 % of the layout to spare
// for the labels and the rest. A read that lays the rows out in scratch
// first and copies them over allocates a layout more, and fails.
func TestReadAllocatesOneLayout(t *testing.T) {
	var file bytes.Buffer
	if _, err := trickleShaped(100000, 8).WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"undirected", "directed"} {
		text := bytes.Replace(file.Bytes(), []byte("graph undirected"), []byte("graph "+kind), 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Read(bytes.NewReader(text))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		lists := (bytes.Count(text, []byte{'\n'}) + runtime.GOMAXPROCS(0)) * int(unsafe.Sizeof(rawEdge{}))
		layout := layoutBytes(&g.adj.out)
		if g.Directed() {
			layout += layoutBytes(&g.adj.in)
		}
		budget := uint64(len(text) + lists + layout*115/100)
		t.Logf("%s: %.1f MB allocated: text %.1f, lists %.1f, layout %.1f; budget %.1f",
			kind, mb(allocated), mb(uint64(len(text))), mb(uint64(lists)), mb(uint64(layout)), mb(budget))
		if allocated > budget {
			t.Errorf("%s Read allocated %.1f MB, past the text, the lists and 1.15 layouts: %.1f MB", kind, mb(allocated), mb(budget))
		}
	}
}

// layoutBytes is the heap d's arrays take.
func layoutBytes(d *flatDir) int {
	return cap(d.rows)*int(unsafe.Sizeof(span{})) + cap(d.ts)*int(unsafe.Sizeof(NodeID(0))) + cap(d.ws)*8
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// BenchmarkEdgeOpsByDegree deletes and reinserts one edge at a hub of
// degree d. The graph is many stars — a million edges in all, whatever d
// is — and every operation picks a star and a leaf at random, so the
// hub's row is cold when it is searched. "map" is the same on the
// position-indexed reference, the cost the sorted rows' binary search and
// shift are weighed against.
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
		{"sorted", func(n int) { g, m = New(n, false), nil },
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
