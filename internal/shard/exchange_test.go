package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
)

// infinities is an all-Infinity base: relaxing on top of it is a plain
// multi-source Dijkstra.
// paged publishes a distance vector the way a shard's host does.
func paged(dist []int64) serve.Paged[int64] { return serve.Paged[int64]{}.Update(dist, nil) }

func infinities(n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		d[i] = graph.Infinity
	}
	return d
}

// fragment is a test stand-in for one shard: its graph, its maintained
// view, and its relaxer.
type fragment struct {
	g    *graph.Graph
	view []int64
	r    seedRelaxer
}

// fragments splits g under p and runs the fragment-local Dijkstras.
func fragments(g *graph.Graph, p Partitioner, src graph.NodeID) []*fragment {
	fs := make([]*fragment, p.Shards())
	for id := range fs {
		fs[id] = &fragment{g: FilterGraph(g, p, id)}
	}
	refresh(fs, src)
	return fs
}

func refresh(fs []*fragment, src graph.NodeID) {
	for _, f := range fs {
		f.view = sssp.Dijkstra(f.g, src)
	}
}

// gathered copies the fragment views the way a router holds them (the
// exchange overwrites its copy; the shards keep theirs).
func gathered(fs []*fragment) [][]int64 {
	views := make([][]int64, len(fs))
	for i, f := range fs {
		views[i] = append([]int64(nil), f.view...)
	}
	return views
}

// evalOn is the in-process eval: shard i relaxes its frontier on top of
// its own view, at epoch 0.
func evalOn(fs []*fragment) func(int, [][2]int64) ([][2]int64, uint64, error) {
	return func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
		improved, err := fs[i].r.relax(fs[i].g, paged(fs[i].view), seeds)
		return improved, 0, err
	}
}

// denseEvals replays the protocol this one replaced — every round seeds
// every shard with every finite distance and ends on a round that
// improved nothing — and returns how many evals it makes.
func denseEvals(fs []*fragment, n int) int {
	dist := infinities(n)
	for _, f := range fs {
		minCombine(dist, f.view)
	}
	for evals := 0; ; {
		improved := false
		for _, f := range fs {
			var seeds [][2]int64
			for v, d := range dist {
				if d < graph.Infinity {
					seeds = append(seeds, [2]int64{int64(v), d})
				}
			}
			out, _ := f.r.relax(f.g, paged(infinities(n)), seeds)
			evals++
			for _, p := range out {
				if p[1] < dist[p[0]] {
					dist[p[0]], improved = p[1], true
				}
			}
		}
		if !improved {
			return evals
		}
	}
}

func TestRelaxMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.PowerLaw(rng, 300, 6, true)
	src := graph.NodeID(0)
	var r seedRelaxer
	improved, err := r.relax(g, paged(infinities(g.NumNodes())), [][2]int64{{int64(src), 0}})
	if err != nil {
		t.Fatal(err)
	}
	got := infinities(g.NumNodes())
	got[src] = 0
	for _, p := range improved {
		if p[0] == int64(src) {
			t.Fatalf("seed %d echoed back as an improvement", src)
		}
		got[p[0]] = p[1]
	}
	want := sssp.Dijkstra(g, src)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, Dijkstra says %d", v, got[v], want[v])
		}
	}
}

// TestRelaxReportsOnlyNews: what the router already holds — the seeds,
// and whatever the view already beats — is not sent back.
func TestRelaxReportsOnlyNews(t *testing.T) {
	g := graph.New(4, true)
	g.InsertEdge(0, 1, 5)
	g.InsertEdge(1, 2, 1)
	g.InsertEdge(1, 3, 1)
	base := paged([]int64{0, 5, 6, 2}) // 3 is reached more cheaply some other way
	var r seedRelaxer
	// A duplicate seed keeps the smaller value; a seed above base is a no-op.
	improved, err := r.relax(g, base, [][2]int64{{1, 4}, {1, 3}, {2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(improved) != 1 || improved[0] != [2]int64{2, 4} {
		t.Fatalf("improved = %v, want [[2 4]]", improved)
	}
	if base.At(1) != 5 || base.At(2) != 6 {
		t.Fatalf("relax wrote into the published view: %v", base.Slice())
	}
}

func TestRelaxRejectsBadSeeds(t *testing.T) {
	g := graph.New(3, true)
	var r seedRelaxer
	for _, seeds := range [][][2]int64{
		{{3, 1}}, {{-1, 1}}, {{0, -1}}, {{0, graph.Infinity}}, {{1 << 40, 1}},
	} {
		if _, err := r.relax(g, paged(infinities(3)), seeds); err == nil {
			t.Errorf("seeds %v accepted", seeds)
		}
	}
	if _, err := r.relax(g, paged(infinities(2)), nil); err == nil {
		t.Error("view and graph of different sizes accepted")
	}
}

// TestRelaxSteadyStateAllocs: the scratch is reused, so a second eval of
// the same size allocates its result and nothing else.
func TestRelaxSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.PowerLaw(rng, 2000, 8, false)
	base := paged(infinities(g.NumNodes()))
	seeds := [][2]int64{{0, 0}, {7, 3}}
	var r seedRelaxer
	if _, err := r.relax(g, base, seeds); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.relax(g, base, seeds) }); allocs > 1 {
		t.Fatalf("steady-state eval makes %.0f allocations, want 1 (the result)", allocs)
	}
}

// TestExchangeDifferential is the in-process half of the sharded ≡
// single-process guarantee: over random power-law graphs (directed and
// undirected), random partition widths, and random update streams, the
// exchange over fragment-local answers must equal the full-graph
// recompute for both SSSP and CC — and SSSP must get there with no more
// evals than the dense protocol it replaced, and none on one shard.
func TestExchangeDifferential(t *testing.T) {
	leakCheck(t)
	for _, directed := range []bool{true, false} {
		for shards := 1; shards <= 4; shards++ {
			t.Run(fmt.Sprintf("directed=%v/shards=%d", directed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17*shards) + 31))
				g := gen.PowerLaw(rng, 250, 5, directed)
				p := NewHashPartitioner(shards)
				src := graph.NodeID(rng.Intn(g.NumNodes()))
				fs := fragments(g, p, src)

				check := func(round int) {
					n := g.NumNodes()
					dist, st := SSSPExchange(p, directed, n, gathered(fs), make(EpochVector, shards), evalOn(fs))
					want := sssp.Dijkstra(g, src)
					for v := range want {
						if dist[v] != want[v] {
							t.Fatalf("round %d: sssp dist[%d] = %d, want %d (%+v)", round, v, dist[v], want[v], st)
						}
					}
					if !st.Converged {
						t.Fatalf("round %d: quiescent exchange did not converge: %+v", round, st)
					}
					if shards == 1 && st.Evals != 0 {
						t.Fatalf("round %d: %d evals on a single shard", round, st.Evals)
					}
					if dense := denseEvals(fs, n); st.Evals > dense {
						t.Fatalf("round %d: %d evals, the dense protocol made %d", round, st.Evals, dense)
					}
					if st.PairsOut > n*shards || st.Evals > st.PairsOut {
						t.Fatalf("round %d: implausible traffic %+v", round, st)
					}
					// CC: fragment views are fragment-local labels; the union
					// pass must reproduce the full-graph labels exactly.
					labelViews := make([][]int64, shards)
					for id, f := range fs {
						labelViews[id] = cc.CCfp(f.g)
					}
					labels := CCExchange(n, labelViews)
					wantLabels := cc.CCfp(g)
					for v := range wantLabels {
						if labels[v] != wantLabels[v] {
							t.Fatalf("round %d: cc label[%d] = %d, want %d",
								round, v, labels[v], wantLabels[v])
						}
					}
				}

				check(0)
				for round := 1; round <= 5; round++ {
					b := gen.RandomUpdates(rng, g, 60, 0.5)
					for id, sb := range SplitBatch(p, directed, b) {
						fs[id].g.Advance(sb) // as a shard's apply loop does
					}
					g.Apply(b)
					refresh(fs, src)
					check(round)
				}
			})
		}
	}
}

// TestExchangeNothingCrossesACut: when every vertex the source reaches
// is owned by the shard that reaches it, there is no frontier and no
// shard is asked anything, however many shards there are.
func TestExchangeNothingCrossesACut(t *testing.T) {
	p := NewHashPartitioner(2)
	g := graph.New(60, true)
	var mine []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if p.Owner(graph.NodeID(v)) == 0 {
			mine = append(mine, graph.NodeID(v))
		}
	}
	for i := 0; i+1 < len(mine); i++ {
		g.InsertEdge(mine[i], mine[i+1], int64(i%3)+1)
	}
	src := mine[0]
	fs := fragments(g, p, src)
	dist, st := SSSPExchange(p, g.Directed(), g.NumNodes(), gathered(fs), make(EpochVector, 2), evalOn(fs))
	if st.Evals != 0 || st.Rounds != 0 || !st.Converged {
		t.Fatalf("exchange with no cut crossing: %+v, want no evals", st)
	}
	want := sssp.Dijkstra(g, src)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

// soundPartial checks what a degraded answer still promises: no value
// undershoots the true distance, and the source is at 0.
func soundPartial(t *testing.T, g *graph.Graph, src graph.NodeID, dist []int64) {
	t.Helper()
	want := sssp.Dijkstra(g, src)
	for v := range want {
		if dist[v] < want[v] {
			t.Fatalf("dist[%d] = %d undershoots the true distance %d", v, dist[v], want[v])
		}
	}
	if dist[src] != 0 {
		t.Fatalf("dist[src] = %d", dist[src])
	}
}

// TestExchangeDegraded: a shard that is missing from the start, and one
// whose eval fails mid-exchange, are both left out without failing the
// exchange or hanging it, and the partial stays sound.
func TestExchangeDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.PowerLaw(rng, 250, 5, false)
	p := NewHashPartitioner(3)
	src := graph.NodeID(0)
	fs := fragments(g, p, src)
	n := g.NumNodes()

	views := gathered(fs)
	views[1] = nil
	dist, st := SSSPExchange(p, g.Directed(), n, views, make(EpochVector, 3), func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
		if i == 1 {
			t.Fatal("missing shard was sent an eval")
		}
		return evalOn(fs)(i, seeds)
	})
	soundPartial(t, g, src, dist)
	if !st.Converged {
		t.Fatalf("exchange among the shards that answered did not end: %+v", st)
	}

	failed := 0
	dist, st = SSSPExchange(p, g.Directed(), n, gathered(fs), make(EpochVector, 3), func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
		if i == 2 {
			failed++
			return nil, 0, fmt.Errorf("shard %d down", i)
		}
		return evalOn(fs)(i, seeds)
	})
	soundPartial(t, g, src, dist)
	if failed != 1 {
		t.Fatalf("failed shard was asked %d times, want once", failed)
	}
	if st.Evals == 0 || st.Evals > 3*n {
		t.Fatalf("implausible eval count %+v", st)
	}
}

// TestExchangeStopsWhenEpochMoves: a shard answering from another epoch
// than the gathered one ends the exchange after the sweep in progress,
// unconverged, with the epoch it was seen at recorded.
func TestExchangeStopsWhenEpochMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.PowerLaw(rng, 250, 5, false)
	p := NewHashPartitioner(2)
	fs := fragments(g, p, 0)
	epochs := EpochVector{7, 7}
	_, st := SSSPExchange(p, g.Directed(), g.NumNodes(), gathered(fs), epochs, func(i int, seeds [][2]int64) ([][2]int64, uint64, error) {
		improved, _, err := evalOn(fs)(i, seeds)
		return improved, 7 + uint64(i), err // shard 1 has moved on to epoch 8
	})
	if st.Converged || st.Rounds != 1 || st.Evals > 2 {
		t.Fatalf("exchange over a moving shard: %+v, want one unconverged sweep", st)
	}
	if epochs[0] != 7 || epochs[1] != 8 {
		t.Fatalf("epochs = %v, want [7 8]", epochs)
	}
}

// FuzzEvalRequest throws hostile frontiers at the shard-side eval: it
// must reject out-of-range, negative and non-finite seeds, and for
// everything it accepts (duplicates included) answer exactly what a
// plain Dijkstra over view ∧ seeds finds, without touching the view.
func FuzzEvalRequest(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3})
	f.Add([]byte{5, 2, 5, 1, 5, 9})
	f.Add([]byte{255, 1})
	f.Add([]byte{3, 255, 200, 254, 40, 253})
	rng := rand.New(rand.NewSource(8))
	g := FilterGraph(gen.PowerLaw(rng, 40, 4, false), NewHashPartitioner(2), 0)
	n := g.NumNodes()
	view := sssp.Dijkstra(g, 0)
	var r seedRelaxer
	f.Fuzz(func(t *testing.T, data []byte) {
		// Byte pairs become (vertex, value); the top byte values map to
		// the boundary cases a hostile router could send.
		var seeds [][2]int64
		valid := true
		for i := 0; i+1 < len(data); i += 2 {
			v, d := int64(data[i]), int64(data[i+1])
			switch data[i] {
			case 255:
				v = -1
			case 254:
				v = int64(n)
			}
			switch data[i+1] {
			case 255:
				d = -1
			case 254:
				d = graph.Infinity
			case 253:
				d = graph.Infinity - 1
			}
			valid = valid && v >= 0 && v < int64(n) && d >= 0 && d < graph.Infinity
			seeds = append(seeds, [2]int64{v, d})
		}
		published := paged(view)
		improved, err := r.relax(g, published, seeds)
		for v := range view {
			if published.At(v) != view[v] {
				t.Fatalf("eval wrote view[%d]", v)
			}
		}
		if (err == nil) != valid {
			t.Fatalf("seeds %v: err = %v, valid = %v", seeds, err, valid)
		}
		if err != nil {
			return
		}
		// Oracle: Dijkstra from view ∧ seeds as sources, on an empty base.
		start := append([]int64(nil), view...)
		for _, p := range seeds {
			if p[1] < start[p[0]] {
				start[p[0]] = p[1]
			}
		}
		var all [][2]int64
		for v, d := range start {
			if d < graph.Infinity {
				all = append(all, [2]int64{int64(v), d})
			}
		}
		var oracle seedRelaxer
		closed, _ := oracle.relax(g, paged(infinities(n)), all)
		want := start
		for _, p := range closed {
			want[p[0]] = p[1]
		}
		got := append([]int64(nil), view...)
		for _, p := range seeds {
			if p[1] < got[p[0]] {
				got[p[0]] = p[1]
			}
		}
		for _, p := range improved {
			if p[1] >= got[p[0]] {
				t.Fatalf("improved pair %v is no news (router holds %d)", p, got[p[0]])
			}
			got[p[0]] = p[1]
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seeds %v: vertex %d = %d, want %d", seeds, v, got[v], want[v])
			}
		}
	})
}
