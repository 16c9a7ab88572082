package bench

import "incgraph/internal/gen"

// Table1 regenerates the paper's Table 1: batch vs. fine-tuned competitor
// vs. deduced incremental algorithm for SSSP, Sim and LCC with
// |ΔG| = 4%|G|, averaged over each class's sampled instances.
func Table1(cfg Config) {
	t := newTable(cfg.Out, "Table 1: incrementalized algorithms at |ΔG| = 4%|G|",
		"Problem", "Batch A", "Competitor", "Deduced A_Δ", "A/A_Δ")

	// SSSP and Sim run on the directed TW stand-in; LCC on its undirected
	// twin (the paper's graph is a single 73.7M-element graph).
	d, _ := gen.ByName("TW")
	for _, c := range classes {
		if !c.table1 {
			continue
		}
		g := c.twin.build(d, cfg.Seed, cfg.Scale)
		delta, updated := batchUpdate(cfg, g, 4*g.Size()/100)
		ins := c.sample(cfg, g)
		var batch, compT, incT float64
		for _, in := range ins {
			batch += stopwatch(func() { c.batch(updated, in) })
			compT += timeRepair(c.comp(g.Clone(), in), delta)
			incT += timeRepair(c.deduced(g.Clone(), in), delta)
		}
		n := float64(len(ins))
		batch, compT, incT = batch/n, compT/n, incT/n
		t.row(c.name, batch, compT, incT, speedup(batch, incT))
	}
	t.flush()
}
