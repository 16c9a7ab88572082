package bench

import "incgraph/internal/gen"

// Exp4 regenerates Fig. 8: live-heap cost of each algorithm's maintained
// structures on the OKT stand-in, measured as heap growth while building
// the maintainer (graph excluded — every algorithm of a class shares it).
// The expected shape: deducible algorithms (IncSSSP, IncDFS, IncLCC) cost
// no more than their batch counterparts, weakly deducible ones (IncCC,
// IncSim) add only timestamps, and DynCC's forest hierarchy dominates
// everything.
func Exp4(cfg Config) {
	d, _ := gen.ByName("OKT")
	t := newTable(cfg.Out, "Fig 8: memory of maintained structures on OKT (graph excluded)",
		"Class", "Batch result", "Deduced", "Competitor")

	keep := make([]any, 0, 16)
	probe := func(build func() any) string {
		x, delta := heapDelta(build)
		keep = append(keep, x)
		return mib(delta)
	}
	for _, c := range fig6Classes() {
		g := c.twin.build(d, cfg.Seed, cfg.Scale)
		in := c.inst(cfg)
		t.row(c.name,
			probe(func() any { return c.batch(g, in) }),
			probe(func() any { return c.deduced(g, in) }),
			probe(func() any { return c.comp(g, in) }),
		)
	}
	t.flush()
	_ = keep
}
