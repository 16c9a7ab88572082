// Logistics: watching for single points of failure in a supply network.
//
// Routes come and go and warehouses open (edge and vertex updates, §4 of
// the paper); the operator needs to know, after every change, which warehouses
// are articulation points — their failure would disconnect deliveries —
// and how redundancy (biconnected components) evolves. Both are maintained
// incrementally and verified against batch recomputation.
package main

import (
	"fmt"
	"time"

	"incgraph"
)

func main() {
	// Start from a sparse power-law network: a few hubs, many spokes —
	// exactly the shape that breeds articulation points. The warehouses
	// the loop opens are sites of the network from the start, with no
	// route yet: a graph's node set is fixed when it is built.
	net := incgraph.PowerLawGraph(31, 5_000, 4, false)
	const opening = 3
	g := incgraph.NewGraph(net.NumNodes()+opening, false)
	net.Edges(func(u, v incgraph.NodeID, w int64) { g.InsertEdge(u, v, w) })
	next := incgraph.NodeID(net.NumNodes()) // the next warehouse to open
	fmt.Printf("supply network: %d sites, %d routes\n\n", g.NumNodes(), g.NumEdges())

	inc := incgraph.NewIncBC(g)
	count := func() int {
		n := 0
		for _, a := range inc.Result().Articulation {
			if a {
				n++
			}
		}
		return n
	}
	fmt.Printf("initially: %d articulation points, %d biconnected components\n\n",
		count(), inc.Result().NumComps())

	var incTotal, batchTotal time.Duration
	for week := 1; week <= 6; week++ {
		delta := incgraph.RandomUpdates(int64(300+week), inc.Graph(), 150, 0.6)

		// Every other week a new warehouse opens, wired to two existing
		// sites — a vertex insertion: the first edges of an isolated site.
		if week%2 == 0 {
			v := next
			next++
			delta = append(delta,
				incgraph.Update{Kind: incgraph.InsertEdge, From: incgraph.NodeID(week * 13), To: v, W: 1},
				incgraph.Update{Kind: incgraph.InsertEdge, From: v, To: incgraph.NodeID(week * 29), W: 1},
			)
		}

		t0 := time.Now()
		visited := inc.Apply(delta)
		incTime := time.Since(t0)
		incTotal += incTime

		t0 = time.Now()
		want := incgraph.Biconnectivity(inc.Graph())
		batchTotal += time.Since(t0)
		if !inc.Result().Equivalent(want, inc.Graph()) {
			panic("biconnectivity diverged from batch recomputation")
		}

		fmt.Printf("week %d: %3d changes | %5d sites revisited | %4d articulation points | %5d components | inc %8v\n",
			week, len(delta), visited, count(), inc.Result().NumComps(),
			incTime.Round(time.Microsecond))
	}
	fmt.Printf("\ntotals: incremental %v vs batch verification %v\n",
		incTotal.Round(time.Millisecond), batchTotal.Round(time.Millisecond))
}
