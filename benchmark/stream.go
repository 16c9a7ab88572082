//go:build linux

package main

import (
	"bytes"
	"math/rand"
	"strconv"

	"incgraph/internal/graph"
)

// The benchmark owns its input generators so that the inputs are a
// function of the seed and of the files under benchmark/ alone: a later
// change to internal/gen must not change what two commits are compared on.

const (
	maxWeight = 100 // edge weights are uniform in [1, maxWeight]
	alphabet  = 5   // node labels are uniform in [0, alphabet)
)

// powerLaw builds an undirected labelled preferential-attachment graph
// with n nodes and roughly avgDeg average degree.
func powerLaw(rng *rand.Rand, n, avgDeg int) *graph.Graph {
	k := avgDeg / 2 // edges attached per arriving node
	if k < 1 {
		k = 1
	}
	g := graph.New(n, false)
	// ends lists every edge endpoint once, so a uniform draw from it is a
	// degree-proportional draw of a node.
	ends := make([]graph.NodeID, 0, 2*k*n)
	seed := k + 1
	if seed > n {
		seed = n
	}
	add := func(u, v graph.NodeID) bool {
		if !g.InsertEdge(u, v, int64(rng.Intn(maxWeight))+1) {
			return false
		}
		ends = append(ends, u, v)
		return true
	}
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			add(graph.NodeID(i), graph.NodeID(j))
		}
	}
	for v := seed; v < n; v++ {
		for attached, tries := 0, 0; attached < k && tries < 20*k; tries++ {
			if t := ends[rng.Intn(len(ends))]; t != graph.NodeID(v) && add(graph.NodeID(v), t) {
				attached++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.SetLabel(graph.NodeID(v), graph.Label(rng.Intn(alphabet)))
	}
	return g
}

// pattern builds a small connected directed labelled pattern graph for
// the sim class: a spine plus random extra edges.
func pattern(rng *rand.Rand, n, m int) *graph.Graph {
	q := graph.New(n, true)
	for v := 0; v < n; v++ {
		q.SetLabel(graph.NodeID(v), graph.Label(rng.Intn(alphabet)))
	}
	for v := 1; v < n; v++ {
		q.InsertEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
	}
	for tries := 0; q.NumEdges() < m && tries < 50*m; tries++ {
		q.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 1)
	}
	return q
}

// stream generates the writer's requests against a mirror of the graph
// the system under test holds: half of the unit updates delete an edge the
// mirror has, half insert one it lacks, so no update is a no-op and
// deletions do real repair work. An insert puts back, with its weight, an
// edge deleted earlier (a fresh random edge only while there is none): the
// graph stays the initial one less a few hundred edges that change all the
// time, instead of drifting from a power-law graph towards a uniform random
// one at a pace set by how fast the system happens to run — which made
// what a run measures depend on its seed (cluster's routed SSSP query took
// 15% longer on some seeds than on others, every time) and on its own speed.
// The mirror is what every published view is checked against after the run.
type stream struct {
	rng    *rand.Rand
	mirror *graph.Graph
	// edges lists the mirror's edges for O(1) uniform sampling; a deleted
	// edge is swapped out with the last one and kept in removed.
	edges   []edge
	removed []edge
	units   int64 // unit updates generated so far
	// keep makes next record every batch in log, for the traced run's
	// shadow timings to replay.
	keep bool
	log  []graph.Batch
}

type edge struct {
	u, v graph.NodeID
	w    int64
}

func newStream(rng *rand.Rand, g *graph.Graph) *stream {
	s := &stream{rng: rng, mirror: g, edges: make([]edge, 0, g.NumEdges())}
	g.Edges(func(u, v graph.NodeID, w int64) { s.edges = append(s.edges, edge{u, v, w}) })
	return s
}

// take removes and returns a uniformly drawn element of *es.
func take(rng *rand.Rand, es *[]edge) edge {
	i := rng.Intn(len(*es))
	e := (*es)[i]
	(*es)[i] = (*es)[len(*es)-1]
	*es = (*es)[:len(*es)-1]
	return e
}

// next returns the next batch of size unit updates and applies it to the
// mirror.
func (s *stream) next(size int) graph.Batch {
	b := make(graph.Batch, 0, size)
	n := s.mirror.NumNodes()
	for len(b) < size {
		if s.rng.Intn(2) == 0 && len(s.edges) > 0 {
			e := take(s.rng, &s.edges)
			s.removed = append(s.removed, e)
			s.mirror.DeleteEdge(e.u, e.v)
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: e.u, To: e.v})
			continue
		}
		var e edge
		if len(s.removed) > 0 {
			e = take(s.rng, &s.removed)
		} else {
			e = edge{graph.NodeID(s.rng.Intn(n)), graph.NodeID(s.rng.Intn(n)), int64(s.rng.Intn(maxWeight)) + 1}
		}
		if e.u == e.v || !s.mirror.InsertEdge(e.u, e.v, e.w) {
			continue
		}
		s.edges = append(s.edges, e)
		b = append(b, graph.Update{Kind: graph.InsertEdge, From: e.u, To: e.v, W: e.w})
	}
	s.units += int64(size)
	if s.keep {
		s.log = append(s.log, b)
	}
	return b
}

// encodeBatch renders a batch in the POST /update text format ("+ u v w"
// and "- u v" lines). It is the benchmark's own encoder: the wire format,
// not graph.WriteBatch, is what the end-to-end run depends on.
func encodeBatch(b graph.Batch) []byte {
	var buf bytes.Buffer
	for _, u := range b {
		if u.Kind == graph.InsertEdge {
			buf.WriteString("+ ")
		} else {
			buf.WriteString("- ")
		}
		buf.WriteString(strconv.Itoa(int(u.From)))
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(int(u.To)))
		if u.Kind == graph.InsertEdge {
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatInt(u.W, 10))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// inputs are everything one run feeds the system under test.
type inputs struct {
	graph   *graph.Graph // the initial graph; the stream's mirror is a clone
	pattern *graph.Graph // nil unless the workload hosts sim
	stream  *stream
}

// graphSeed generates every workload's initial graph and pattern. The
// topology — hub degrees, how many cut edges a shortest path crosses — is
// part of what a workload is, like its size: drawn per run it moved
// cluster's query latency by 23% and burst's update latency by 11% from
// seed to seed, more than any bound could absorb. The run's --seed drives
// the update stream, which after a few hundred POSTs has rewritten a large
// share of the edges anyway.
const graphSeed = 20210620

func makeInputs(w workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(graphSeed))
	in := inputs{graph: powerLaw(rng, w.nodes, w.deg)}
	if w.hosts("sim") {
		in.pattern = pattern(rng, 4, 6) // the paper's |Q| = (4, 6)
	}
	in.stream = newStream(rand.New(rand.NewSource(seed)), in.graph.Clone())
	return in
}

// ssspSource is the node every sssp maintainer is rooted at.
const ssspSource = 0
