// Package gen provides deterministic synthetic graph and workload
// generators. They stand in for the paper's real-life datasets (see
// DESIGN.md, substitutions): power-law graphs via preferential attachment
// for the social networks, Erdős–Rényi graphs, grid road networks, label
// assignment from a small alphabet, random mixed update batches, and
// temporal update streams with a configurable insert/delete mix.
package gen

import (
	"math/rand"

	"incgraph/internal/graph"
)

// Weight bounds used by the generators; weights are uniform in [1, MaxWeight].
const MaxWeight = 100

func randWeight(rng *rand.Rand) int64 { return int64(rng.Intn(MaxWeight)) + 1 }

// ErdosRenyi generates a G(n, m) graph: m distinct uniformly random edges
// over n nodes, with uniform random weights.
func ErdosRenyi(rng *rand.Rand, n, m int, directed bool) *graph.Graph {
	g := graph.New(n, directed)
	for g.NumEdges() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		g.InsertEdge(u, v, randWeight(rng))
	}
	return g
}

// PowerLaw generates a preferential-attachment (Barabási–Albert) graph
// with roughly avgDeg average degree, producing the heavy-tailed degree
// distribution of real social networks. For directed graphs each generated
// edge is oriented uniformly at random, which yields the skewed in/out
// degrees of follower networks.
func PowerLaw(rng *rand.Rand, n, avgDeg int, directed bool) *graph.Graph {
	if avgDeg < 2 {
		avgDeg = 2
	}
	k := avgDeg / 2 // edges attached per arriving node
	if k < 1 {
		k = 1
	}
	g := graph.New(n, directed)
	// Repeated-endpoint list: each node appears once per incident edge
	// endpoint, so sampling from it is degree-proportional sampling.
	ends := make([]graph.NodeID, 0, 2*k*n+n)
	seed := k + 1
	if seed > n {
		seed = n
	}
	// Seed clique over the first few nodes.
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			addOriented(rng, g, graph.NodeID(i), graph.NodeID(j), directed)
			ends = append(ends, graph.NodeID(i), graph.NodeID(j))
		}
	}
	for v := seed; v < n; v++ {
		attached := 0
		for tries := 0; attached < k && tries < 20*k; tries++ {
			var t graph.NodeID
			if len(ends) == 0 {
				t = graph.NodeID(rng.Intn(v))
			} else {
				t = ends[rng.Intn(len(ends))]
			}
			if t == graph.NodeID(v) {
				continue
			}
			if addOriented(rng, g, graph.NodeID(v), t, directed) {
				ends = append(ends, graph.NodeID(v), t)
				attached++
			}
		}
	}
	return g
}

// addOriented inserts edge {u, v}; for directed graphs the orientation is
// chosen uniformly. It reports whether an edge was added.
func addOriented(rng *rand.Rand, g *graph.Graph, u, v graph.NodeID, directed bool) bool {
	if directed && rng.Intn(2) == 0 {
		u, v = v, u
	}
	if !directed || !g.HasEdge(u, v) && !g.HasEdge(v, u) {
		return g.InsertEdge(u, v, randWeight(rng))
	}
	return false
}

// Grid generates a w×h road-network-like graph: nodes on a grid, directed
// edges in both directions between horizontal and vertical neighbors, with
// independent random weights per direction (asymmetric travel times).
func Grid(rng *rand.Rand, w, h int) *graph.Graph {
	g := graph.New(w*h, true)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.InsertEdge(id(x, y), id(x+1, y), randWeight(rng))
				g.InsertEdge(id(x+1, y), id(x, y), randWeight(rng))
			}
			if y+1 < h {
				g.InsertEdge(id(x, y), id(x, y+1), randWeight(rng))
				g.InsertEdge(id(x, y+1), id(x, y), randWeight(rng))
			}
		}
	}
	return g
}

// AssignLabels labels every node uniformly from an alphabet of the given
// size, as in the paper's synthetic graphs (|alphabet| = 5).
func AssignLabels(rng *rand.Rand, g *graph.Graph, alphabet int) {
	for v := 0; v < g.NumNodes(); v++ {
		g.SetLabel(graph.NodeID(v), graph.Label(rng.Intn(alphabet)))
	}
}

// Pattern generates a small connected directed pattern graph with n nodes
// and m edges, labeled from the alphabet, for graph-simulation queries.
// The paper's experiments use |Q| = (4, 6).
func Pattern(rng *rand.Rand, n, m, alphabet int) *graph.Graph {
	q := graph.New(n, true)
	for v := 0; v < n; v++ {
		q.SetLabel(graph.NodeID(v), graph.Label(rng.Intn(alphabet)))
	}
	// Spine to keep the pattern connected.
	for v := 1; v < n; v++ {
		q.InsertEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
	}
	for tries := 0; q.NumEdges() < m && tries < 50*m; tries++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		q.InsertEdge(u, v, 1)
	}
	return q
}

// RandomUpdates builds a batch of count unit updates against g:
// insFrac·count insertions of distinct currently-absent edges and the rest
// deletions of distinct currently-present edges, shuffled together. The
// paper's random workloads use insFrac = 0.5.
func RandomUpdates(rng *rand.Rand, g *graph.Graph, count int, insFrac float64) graph.Batch {
	nIns := int(float64(count)*insFrac + 0.5)
	nDel := count - nIns
	if nDel > g.NumEdges() {
		nDel = g.NumEdges()
	}
	b := make(graph.Batch, 0, count)

	// Deletions: sample distinct existing edges.
	var edges []graph.Update
	g.Edges(func(u, v graph.NodeID, w int64) {
		edges = append(edges, graph.Update{Kind: graph.DeleteEdge, From: u, To: v, W: w})
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b = append(b, edges[:nDel]...)

	// Insertions: rejection-sample distinct absent edges.
	n := g.NumNodes()
	seen := make(map[[2]graph.NodeID]bool, nIns)
	for added, tries := 0, 0; added < nIns && tries < 100*nIns+1000; tries++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		if !g.Directed() && seen[[2]graph.NodeID{v, u}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: randWeight(rng)})
		added++
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// UnitInsertions returns count single-edge insertion batches of distinct
// absent edges, for the paper's Exp-1 unit-update experiments.
func UnitInsertions(rng *rand.Rand, g *graph.Graph, count int) []graph.Update {
	b := RandomUpdates(rng, g, count, 1.0)
	return b
}

// UnitDeletions returns count single-edge deletions of distinct present
// edges.
func UnitDeletions(rng *rand.Rand, g *graph.Graph, count int) []graph.Update {
	return RandomUpdates(rng, g, count, 0.0)
}

// HotspotUpdates builds a batch like RandomUpdates but confined to the
// BFS ball of the given radius around a random center — the skewed,
// localized churn of real workloads (one community fighting, one product
// trending). Locality shrinks the affected area AFF, so incremental
// algorithms benefit even more than under uniform updates.
func HotspotUpdates(rng *rand.Rand, g *graph.Graph, count int, insFrac float64, radius int) graph.Batch {
	n := g.NumNodes()
	center := graph.NodeID(rng.Intn(n))
	dist := map[graph.NodeID]int{center: 0}
	queue := []graph.NodeID{center}
	f := g.Flat()
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if dist[v] >= radius {
			continue
		}
		visit := func(w graph.NodeID) {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
		out, _, _, _ := f.OutSpans(v)
		for _, x := range out {
			visit(x)
		}
		if g.Directed() {
			in, _, _, _ := f.InSpans(v)
			for _, x := range in {
				visit(x)
			}
		}
	}
	ball := queue
	if len(ball) < 2 {
		return nil
	}
	nIns := int(float64(count)*insFrac + 0.5)
	b := make(graph.Batch, 0, count)

	// Deletions: edges with both endpoints in the ball.
	var edges []graph.Update
	g.Edges(func(u, v graph.NodeID, w int64) {
		if _, ok := dist[u]; !ok {
			return
		}
		if _, ok := dist[v]; !ok {
			return
		}
		edges = append(edges, graph.Update{Kind: graph.DeleteEdge, From: u, To: v, W: w})
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	nDel := count - nIns
	if nDel > len(edges) {
		nDel = len(edges)
	}
	b = append(b, edges[:nDel]...)

	// Insertions: absent pairs within the ball.
	seen := make(map[[2]graph.NodeID]bool, nIns)
	for added, tries := 0, 0; added < nIns && tries < 200*nIns+1000; tries++ {
		u := ball[rng.Intn(len(ball))]
		v := ball[rng.Intn(len(ball))]
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		if !g.Directed() && seen[[2]graph.NodeID{v, u}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: randWeight(rng)})
		added++
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// TemporalStream wraps a base graph in a temporal graph whose event log
// first inserts the base edges at time 0 and then runs the given number of
// windows ("months"). Each window carries perWindow events with the stated
// insert fraction (the paper measured 81% insertions on Wiki-DE),
// maintaining validity against the evolving edge set. Window i covers
// times (i, i+1] for i >= 1; Snapshot(0) is the base graph... base events
// carry time 0, so the first window is (0, 1].
func TemporalStream(rng *rand.Rand, base *graph.Graph, windows, perWindow int, insFrac float64) *graph.Temporal {
	labels := make([]graph.Label, base.NumNodes())
	for v := range labels {
		labels[v] = base.Label(graph.NodeID(v))
	}
	var events []graph.Event
	base.Edges(func(u, v graph.NodeID, w int64) {
		events = append(events, graph.Event{Time: 0, Update: graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w}})
	})
	cur := base.Clone()
	for w := 1; w <= windows; w++ {
		b := RandomUpdates(rng, cur, perWindow, insFrac)
		cur.Apply(b)
		for _, u := range b {
			events = append(events, graph.Event{Time: int64(w), Update: u})
		}
	}
	return graph.NewTemporal(base.NumNodes(), base.Directed(), labels, events)
}
