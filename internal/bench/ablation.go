package bench

import (
	"incgraph/internal/cc"
	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// pullOnly hides an instance's Relaxer so the engine falls back to
// pull-based recomputation of dependents.
type pullOnly[V any] struct{ fixpoint.Instance[V] }

// ExpAblation quantifies the design choices DESIGN.md calls out:
//
//  1. timestamps (weakly deducible IncCC, Example 5) vs. the naive
//     deducible PE reset (Example 2) — what the auxiliary structure buys;
//  2. hand-tuned deduced algorithms vs. the same algorithms expressed
//     through the generic fixpoint engine — the cost of genericity;
//  3. push-based (meet-form relaxation) vs. pull-based (dependent
//     recomputation) step functions inside the engine.
func ExpAblation(cfg Config) {
	d, _ := gen.ByName("OKT")

	// (1) Timestamps vs PE reset, on unit deletions in one big component.
	{
		g := undirected.build(d, cfg.Seed, cfg.Scale)
		dels := gen.UnitDeletions(newRNG(cfg.Seed), g, unitUpdateCount)
		incT := avgUnit(cc.NewInc(g.Clone()), dels)
		naiveT := avgUnit(cc.NewIncNaive(g.Clone()), dels)
		t := newTable(cfg.Out, "Ablation 1: IncCC timestamps (Ex. 5) vs naive PE reset (Ex. 2), unit deletions",
			"Variant", "Avg per deletion", "vs naive")
		t.row("IncCC (timestamps)", ms(incT), speedup(naiveT, incT))
		t.row("IncCCNaive (PE reset)", ms(naiveT), "1.0x")
		t.flush()
	}

	// (2) Tuned vs generic engine at |ΔG| = 4%.
	{
		g := d.Build(cfg.Seed, cfg.Scale)
		delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, 4), 0.5)
		t := newTable(cfg.Out, "Ablation 2: tuned deduced algorithms vs generic engine, |ΔG| = 4%",
			"Algorithm", "Tuned", "Engine", "Engine/Tuned")
		tunedS := timeRepair(sssp.NewInc(g.Clone(), 0), delta)
		engS := timeRepair(sssp.NewIncEngine(g.Clone(), 0), delta)
		t.row("IncSSSP", tunedS, engS, speedup(engS, tunedS))
		q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)
		tunedM := timeRepair(sim.NewInc(g.Clone(), q), delta)
		engM := timeRepair(sim.NewIncEngine(g.Clone(), q), delta)
		t.row("IncSim", tunedM, engM, speedup(engM, tunedM))
		t.flush()
	}

	// (3) Push vs pull step function, batch CC_fp over the whole graph.
	{
		g := undirected.build(d, cfg.Seed, cfg.Scale)
		inst := &cc.Instance{G: g}
		push := stopwatch(func() {
			e := fixpoint.New[int64](inst, fixpoint.PriorityOrder)
			e.Run()
		})
		pull := stopwatch(func() {
			e := fixpoint.New[int64](pullOnly[int64]{inst}, fixpoint.PriorityOrder)
			e.Run()
		})
		t := newTable(cfg.Out, "Ablation 3: push (meet-form relaxation) vs pull (recompute dependents), batch CC_fp",
			"Mode", "Time", "vs pull")
		t.row("push", push, speedup(pull, push))
		t.row("pull", pull, "1.0x")
		t.flush()
	}
}
