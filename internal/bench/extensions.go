package bench

import (
	"incgraph/internal/bc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
)

// ExpExtensions measures the two query classes added beyond the paper's
// five — biconnectivity (named in §3) and dual simulation (an engine
// extension) — incremental vs. batch at |ΔG| = 0.25%|G|, demonstrating
// that the framework's guarantees carry over to new instances. It also
// contrasts uniform against hotspot update workloads, showing how update
// locality shrinks the affected area.
func ExpExtensions(cfg Config) {
	t := newTable(cfg.Out, "Extensions: incremental vs batch at |ΔG| = 0.25%|G|",
		"Class", "Batch", "Incremental", "Speedup")
	d, _ := gen.ByName("OKT")
	{
		g := undirected.build(d, cfg.Seed, cfg.Scale)
		delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, 0.25), 0.5)
		updated := g.Clone()
		updated.Apply(delta)
		batch := stopwatch(func() { bc.Run(updated) })
		inc := bc.NewInc(g.Clone())
		incT := timeRepair(inc, delta)
		t.row("BC", batch, incT, speedup(batch, incT))
	}
	{
		g := d.Build(cfg.Seed, cfg.Scale)
		q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)
		delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, 0.25), 0.5)
		updated := g.Clone()
		updated.Apply(delta)
		batch := stopwatch(func() { sim.DualSim(updated, q) })
		incT := timeRepair(sim.NewIncDual(g.Clone(), q), delta)
		t.row("DualSim", batch, incT, speedup(batch, incT))
	}
	t.flush()

	// Update locality: the same |ΔG| confined to a BFS ball shrinks the
	// affected area, so the incremental advantage grows — the skew of
	// real-world churn works in A_Δ's favor. LCC shows it directly: its
	// PE set is the endpoints of ΔG and their common neighbors, and the
	// updates of a hotspot share endpoints.
	t2 := newTable(cfg.Out, "Update locality: uniform vs hotspot ΔG (IncLCC on LJ, 200 updates)",
		"Workload", "|ΔG|", "LCC_fp", "IncLCC", "Speedup", "|PE|")
	dl, _ := gen.ByName("LJ")
	g := undirected.build(dl, cfg.Seed, cfg.Scale)
	count := 200
	if c := deltaSize(g, 1); c < count {
		count = c // keep tiny scales sane in smoke tests
	}
	for _, kind := range []string{"uniform", "hotspot"} {
		var delta graph.Batch
		if kind == "uniform" {
			delta = gen.RandomUpdates(newRNG(cfg.Seed), g, count, 0.5)
		} else {
			delta = gen.HotspotUpdates(newRNG(cfg.Seed), g, count, 0.5, 1)
		}
		updated := g.Clone()
		updated.Apply(delta)
		batch := stopwatch(func() { lcc.Run(updated) })
		inc := lcc.NewInc(g.Clone())
		inc.Graph().Advance(delta)
		var pe int
		incT := stopwatch(func() { pe = inc.Repair() })
		t2.row(kind, len(delta), batch, incT, speedup(batch, incT), pe)
	}
	t2.flush()
}
