//go:build !race

package incgraph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
)

// residentBudget is what each served class may keep per vertex of the
// graph, beyond the graph itself: its persisted vectors (the class's Vecs
// in the registry, at their sizes in the state codec's classState) and a
// scratch allowance, per vertex (per pair for sim, whose variables are a
// node and a pattern node). An allowance covers the maintainer's
// per-variable arrays, with a few bytes to spare for lists kept at their
// largest:
//
//   - sssp 28: h's key (8), the two heaps' positions (8), the revised set
//     (4) and the tracker's marks (4);
//   - cc 36: the engine's two heaps' positions (8), tracker (4) and scope
//     arena (12), and the queue's entries from the batch run;
//   - sim 24: h's heap positions (4), the tracker (4) and the scope
//     arena (12);
//   - dfs 44: the replay's frames and its list of replayed nodes (16 a
//     node), which a round that replays most of the forest fills;
//   - lcc 24: λ's change and the overlay heads (12) and two sets (8);
//   - bc 48: the lowpoints (4), the visited set (4) and the traversal's
//     lists — seen nodes (8), open blocks (4), frames — which the batch
//     run fills with an entry per node.
var residentBudget = []struct {
	class     string
	persisted float64 // B a vertex (a pair for sim)
	scratch   float64
}{
	{"sssp", 8, 28},        // Dist
	{"cc", 16, 36},         // Labels, TS
	{"sim", 1 + 4 + 8, 24}, // R, Cnt, TS
	{"dfs", 12, 44},        // First, Last, Parent
	{"lcc", 4 + 8, 24},     // Deg, Tri
	{"bc", 1 + 4 + 4, 48},  // Articulation, Block, Num
}

// TestResidentBytesPerVertex holds every served class, built through the
// registry on a power-law graph, to the space claim of the paper's
// summary: a deducible class adds no auxiliary structure and a weakly
// deducible one only timestamps, so what a maintainer keeps beyond the
// graph is its persisted vectors plus per-variable scratch of a stated
// size. It is measured twice, after the batch run and after warmed rounds,
// at 10k and 40k vertices: a per-vertex figure that grew with |V| would
// be a structure that is not per vertex. It measures live heap, and its
// file is left out of -race builds, whose instrumentation is not the
// program's.
func TestResidentBytesPerVertex(t *testing.T) {
	pattern := RandomPattern(3, 4, 5, 3)
	for _, n := range []int{10000, 40000} {
		g := gen.PowerLaw(rand.New(rand.NewSource(int64(n))), n, 8, false)
		gen.AssignLabels(rand.New(rand.NewSource(1)), g, 3)
		rounds := residentRounds(g)
		for _, b := range residentBudget {
			c, ok := serve.LookupClass(b.class)
			if !ok {
				t.Fatalf("no class %q in the registry", b.class)
			}
			per := 1.0
			if c.Pattern {
				per = float64(pattern.NumNodes())
			}
			limit := (b.persisted + b.scratch) * per
			base := liveHeap()
			s, err := c.New(g, serve.Params{Src: 0, Pattern: pattern})
			if err != nil {
				t.Fatal(err)
			}
			s.Recompute()
			recomputed := float64(liveHeap()-base) / float64(n)
			for _, r := range rounds {
				s.Apply(g.Advance(r))
			}
			warmed := float64(liveHeap()-base) / float64(n)
			t.Logf("|V| = %d, %s: %.1f B a vertex after Recompute, %.1f after %d rounds; budget %.1f (%.0f persisted)",
				n, b.class, recomputed, warmed, len(rounds), limit, b.persisted*per)
			if recomputed > limit || warmed > limit {
				t.Errorf("|V| = %d, %s keeps %.1f B a vertex after Recompute and %.1f after warmed rounds, past its %.1f",
					n, b.class, recomputed, warmed, limit)
			}
			runtime.KeepAlive(s)
		}
	}
}

// residentRounds returns rounds that leave g as it was: eight of its
// edges deleted and eight absent ones inserted, then all put back, twice
// over.
func residentRounds(g *graph.Graph) []graph.Batch {
	rng := rand.New(rand.NewSource(2))
	var fwd, undo graph.Batch
	for len(fwd) < 16 {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		up := graph.Update{Kind: graph.InsertEdge, From: u, To: graph.NodeID(rng.Intn(g.NumNodes())), W: 1 + rng.Int63n(9)}
		if len(fwd)%2 == 0 {
			ts, ws, _, _ := g.Flat().OutSpans(u)
			if len(ts) == 0 {
				continue
			}
			k := rng.Intn(len(ts))
			up = graph.Update{Kind: graph.DeleteEdge, From: u, To: ts[k], W: ws[k]}
		} else if up.From == up.To || g.HasEdge(up.From, up.To) {
			continue
		}
		if slices.ContainsFunc(fwd, func(x graph.Update) bool {
			return x.From == up.From && x.To == up.To || x.From == up.To && x.To == up.From
		}) {
			continue
		}
		back := up
		if back.Kind = graph.DeleteEdge; up.Kind == graph.DeleteEdge {
			back.Kind = graph.InsertEdge
		}
		fwd, undo = append(fwd, up), append(undo, back)
	}
	return []graph.Batch{fwd, undo, fwd, undo}
}

// liveHeap returns the heap's live bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
