package bench

import (
	"fmt"

	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// unitUpdateCount is the number of sampled unit insertions (and
// deletions) per dataset in Exp-1; the paper uses 10000 at its scale.
const unitUpdateCount = 200

// applier is any maintainer fed through update batches.
type applier interface{ Apply(graph.Batch) int }

// staged is implemented by maintainers that take G ⊕ ΔG as their graph's
// newest round (graph.Graph.Advance) and compute only the change
// (Repair). Batch-update cells time Repair only, matching the batch
// baselines, which are handed the already-updated graph.
type staged interface {
	Graph() *graph.Graph
	Repair() int
}

// unitOnly hides a unit-update competitor's Repair (DynDFS takes each
// unit update as a round of its own), so that a batch cell times its
// native interface — Apply, one unit update after another — rather than
// one repair of the whole batch.
type unitOnly struct{ applier }

// timeRepair advances the maintainer's graph by delta (untimed; the
// generators' deltas are net already) when the maintainer repairs apart
// and returns the seconds spent in the repair; otherwise it times Apply.
func timeRepair(m applier, delta graph.Batch) float64 {
	sec, _ := timeRepairAff(m, delta)
	return sec
}

// timeRepairAff is timeRepair plus the affected-area size the repair
// reported — the |AFF| column of the machine-readable results.
func timeRepairAff(m applier, delta graph.Batch) (float64, int) {
	var aff int
	if s, ok := m.(staged); ok {
		s.Graph().Advance(delta)
		return stopwatch(func() { aff = s.Repair() }), aff
	}
	return stopwatch(func() { aff = m.Apply(delta) }), aff
}

// audited is an applier that keeps a work ledger, as all six maintainers
// do.
type audited interface {
	applier
	Stats() fixpoint.Stats
}

// applyUnits feeds b to m one unit update at a time, the paper's
// unit-update variants (IncSSSP_n and the like).
func applyUnits(m applier, b graph.Batch) {
	for k := range b {
		m.Apply(b[k : k+1])
	}
}

// avgUnit feeds the updates one at a time and returns the mean seconds
// per update.
func avgUnit(m applier, updates graph.Batch) float64 {
	if len(updates) == 0 {
		return 0
	}
	return stopwatch(func() { applyUnits(m, updates) }) / float64(len(updates))
}

func ms(s float64) string { return fmt.Sprintf("%.3fms", s*1000) }

// unitUpdates samples Exp-1's unit insertions and unit deletions of g.
func unitUpdates(cfg Config, g *graph.Graph) (ins, del graph.Batch) {
	return gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount),
		gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
}

// Exp1 regenerates Fig. 6: average time per unit edge insertion and per
// unit edge deletion, deduced algorithm vs. fine-tuned competitor, over
// all six dataset stand-ins and all five query classes.
func Exp1(cfg Config) {
	for _, c := range fig6Classes() {
		t := newTable(cfg.Out,
			fmt.Sprintf("%s %s: avg time per unit update (deduced vs competitor)", c.fig6, c.name),
			"Dataset", "Inc ins", "Comp ins", "Inc del", "Comp del")
		for _, d := range gen.Datasets {
			g := c.twin.build(d, cfg.Seed, cfg.Scale)
			in := c.inst(cfg)
			ins, del := unitUpdates(cfg, g)
			incIns := avgUnit(c.deduced(g.Clone(), in), ins)
			compIns := avgUnit(c.unitComp(g.Clone(), in), ins)
			incDel := avgUnit(c.deduced(g.Clone(), in), del)
			compDel := avgUnit(c.unitComp(g.Clone(), in), del)
			t.row(d.Name, ms(incIns), ms(compIns), ms(incDel), ms(compDel))
		}
		t.flush()
	}
}

// ExpAff regenerates the affected-area measurements of Exp-1(1c)/(2c):
// the size of H⁰ (or the PE set) for unit updates, as a fraction of the
// number of status variables, on the OKT stand-in.
func ExpAff(cfg Config) {
	d, _ := gen.ByName("OKT")
	t := newTable(cfg.Out, "Exp-1(c): |AFF| proxy per unit update on OKT (fraction of status variables)",
		"Class", "Insertions", "Deletions")
	for _, c := range fig6Classes() {
		g := c.twin.build(d, cfg.Seed, cfg.Scale)
		in := c.inst(cfg)
		ins, del := unitUpdates(cfg, g)
		share := func(b graph.Batch) string {
			m := c.deduced(g.Clone(), in)
			tot := 0
			for _, u := range b {
				tot += m.Apply(graph.Batch{u})
			}
			return pct(float64(tot) / float64(len(b)) / float64(c.vars(g, in)))
		}
		t.row(c.incName, share(ins), share(del))
	}
	t.flush()
}
