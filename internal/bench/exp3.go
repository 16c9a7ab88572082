package bench

import (
	"fmt"

	"incgraph/internal/gen"
)

// Exp3 regenerates Fig. 7(j,k,l): scalability with |G| at |ΔG| = 1%|G|
// for SSSP, CC and Sim over synthetic power-law graphs of growing size.
func Exp3(cfg Config) {
	sizes := []int{25_000, 50_000, 100_000, 200_000}
	const avgDeg = 10
	for _, c := range classes {
		if c.scaling == "" {
			continue
		}
		t := newTable(cfg.Out, fmt.Sprintf("%s %s scalability (|ΔG| = 1%%|G|)", c.scaling, c.name),
			append([]string{"|V|", "|G|"}, c.columns(false)...)...)
		in := c.inst(cfg)
		for _, n := range sizes {
			nodes := int(float64(n) * cfg.Scale)
			g := gen.Synthetic(cfg.Seed, nodes, avgDeg, c.twin != undirected)
			delta, updated := batchUpdate(cfg, g, deltaSize(g, 1))
			cells, _, _ := c.row(updated, delta, in, false, c.fresh(g, in))
			t.row(append([]any{nodes, g.Size()}, cells...)...)
		}
		t.flush()
	}
}
