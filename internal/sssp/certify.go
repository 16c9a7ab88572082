package sssp

import (
	"fmt"

	"incgraph/internal/graph"
)

// Certify checks dist as the distances from src in g without computing
// them: a certificate in the sense of certifying algorithms (McConnell et
// al.), which shares no code with Dijkstra or Inc and reads g's rows. It
// holds that
//
//  1. dist[src] = 0 and every entry lies in [0, Infinity];
//  2. every edge (u, v, w) is relaxed: dist[v] ≤ dist[u] + w wherever that
//     sum is below Infinity (both terms are below Infinity = MaxInt64/4,
//     so it cannot overflow);
//  3. every finite entry is reached from src over tight edges, dist[u] +
//     w = dist[v] — which rejects a zero-weight cycle held below its
//     distance with every edge tight, as no tight path enters it.
//
// Complete: Dijkstra's vector passes, its shortest-path tree being tight.
// Sound: clause 3 makes each finite dist[v] the length of a path, so no
// less than v's distance, and clauses 1 and 2 carried along a shortest
// path (every prefix below Infinity) make it no more, and make a node
// with a path below Infinity finite. It reads each edge out of a reached
// node once and returns an error naming the first clause that fails.
func Certify(g *graph.Graph, src graph.NodeID, dist []int64) error {
	n := g.NumNodes()
	if len(dist) != n {
		return fmt.Errorf("sssp: %d distances for a graph with %d nodes", len(dist), n)
	}
	if src < 0 || int(src) >= n || dist[src] != 0 {
		return fmt.Errorf("sssp: source %d is not at distance 0", src)
	}
	finite := 0
	for v, d := range dist {
		if d < 0 || d > Infinity {
			return fmt.Errorf("sssp: node %d at distance %d, outside [0, Infinity]", v, d)
		}
		if d < Infinity {
			finite++
		}
	}
	reached := make([]bool, n)
	reached[src] = true
	stack, count := []graph.NodeID{src}, 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		du := dist[u]
		ts, ws, _, _ := g.Flat().OutSpans(u)
		for k, to := range ts {
			alt := du + ws[k]
			switch dv := dist[to]; {
			case alt < dv && alt < Infinity:
				return fmt.Errorf("sssp: edge %d→%d (weight %d) not relaxed: %d > %d + %d", u, to, ws[k], dv, du, ws[k])
			case alt == dv && dv < Infinity && !reached[to]:
				reached[to] = true
				stack = append(stack, to)
				count++
			}
		}
	}
	if count < finite {
		for v, d := range dist {
			if d < Infinity && !reached[v] {
				return fmt.Errorf("sssp: node %d at distance %d is not reached from the source over tight edges", v, d)
			}
		}
	}
	return nil
}
