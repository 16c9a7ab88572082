package bench

import (
	"fmt"
	"sort"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// ExpDatasets prints the shape of every stand-in dataset at the configured
// scale — node/edge counts, degree distribution percentiles and maximum —
// so a reader can compare the synthetic graphs against the paper's table
// of real datasets.
func ExpDatasets(cfg Config) {
	t := newTable(cfg.Out, "Dataset stand-ins (paper's originals in DESIGN.md)",
		"Name", "Kind", "|V|", "|E|", "|G|", "avg deg", "p50", "p90", "p99", "max deg")
	for _, d := range gen.Datasets {
		g := d.Build(cfg.Seed, cfg.Scale)
		degs := make([]int, g.NumNodes())
		f := g.Flat()
		for v := range degs {
			out, _, _, _ := f.OutSpans(graph.NodeID(v))
			degs[v] = len(out)
			if g.Directed() {
				in, _, _, _ := f.InSpans(graph.NodeID(v))
				degs[v] += len(in)
			}
		}
		sort.Ints(degs)
		pick := func(p float64) int { return degs[int(p*float64(len(degs)-1))] }
		kind := "undirected"
		if d.Directed {
			kind = "directed"
		}
		avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
		t.row(d.Name, kind, g.NumNodes(), g.NumEdges(), g.Size(),
			fmt.Sprintf("%.1f", avg), pick(0.5), pick(0.9), pick(0.99), degs[len(degs)-1])
	}
	t.flush()
}
