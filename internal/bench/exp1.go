package bench

import (
	"fmt"

	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// unitUpdateCount is the number of sampled unit insertions (and
// deletions) per dataset in Exp-1; the paper uses 10000 at its scale.
const unitUpdateCount = 200

// applier is any maintainer fed through update batches.
type applier interface{ Apply(graph.Batch) int }

// staged is implemented by maintainers that separate materializing G ⊕ ΔG
// (Stage) from the incremental computation (Repair). Batch-update cells
// time Repair only, matching the batch baselines, which are handed the
// already-updated graph.
type staged interface {
	Stage(graph.Batch)
	Repair() int
}

// timeRepair stages delta (untimed) when the maintainer supports it and
// returns the seconds spent in the repair; otherwise it times Apply.
func timeRepair(m applier, delta graph.Batch) float64 {
	sec, _ := timeRepairAff(m, delta)
	return sec
}

// timeRepairAff is timeRepair plus the affected-area size the repair
// reported — the |AFF| column of the machine-readable results.
func timeRepairAff(m applier, delta graph.Batch) (float64, int) {
	var aff int
	if s, ok := m.(staged); ok {
		s.Stage(delta)
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

// timeRepairLedger is timeRepairAff plus the work aggregates of the
// repair: the ledger's Work() and work / |ΔG|, the boundedness quotient
// the perf gate holds across commits.
func timeRepairLedger(m audited, delta graph.Batch) (sec float64, aff int, work int64, ratio float64) {
	before := m.Stats()
	sec, aff = timeRepairAff(m, delta)
	led := m.Stats().Sub(before).Ledger
	led.Delta = int64(len(delta))
	return sec, aff, led.Work(), led.BoundedRatio()
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

// Exp1 regenerates Fig. 6: average time per unit edge insertion and per
// unit edge deletion, deduced algorithm vs. fine-tuned competitor, over
// all six dataset stand-ins and all five query classes.
func Exp1(cfg Config) {
	type cell struct{ incIns, compIns, incDel, compDel float64 }
	classes := []struct {
		name  string
		panel string
		run   func(d gen.Dataset) cell
	}{
		{"SSSP", "Fig 6(a,b)", func(d gen.Dataset) cell {
			var c cell
			g := d.Build(cfg.Seed, cfg.Scale)
			ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
			del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
			c.incIns = avgUnit(sssp.NewInc(g.Clone(), 0), ins)
			c.compIns = avgUnit(sssp.NewRR(g.Clone(), 0), ins)
			c.incDel = avgUnit(sssp.NewInc(g.Clone(), 0), del)
			c.compDel = avgUnit(sssp.NewRR(g.Clone(), 0), del)
			return c
		}},
		{"CC", "Fig 6(c,d)", func(d gen.Dataset) cell {
			var c cell
			g := buildUndirected(d, cfg.Seed, cfg.Scale)
			ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
			del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
			c.incIns = avgUnit(cc.NewInc(g.Clone()), ins)
			c.compIns = avgUnit(cc.NewDynCC(g.Clone()), ins)
			c.incDel = avgUnit(cc.NewInc(g.Clone()), del)
			c.compDel = avgUnit(cc.NewDynCC(g.Clone()), del)
			return c
		}},
		{"Sim", "Fig 6(e,f)", func(d gen.Dataset) cell {
			var c cell
			g := d.Build(cfg.Seed, cfg.Scale)
			q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)
			ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
			del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
			c.incIns = avgUnit(sim.NewInc(g.Clone(), q), ins)
			c.compIns = avgUnit(sim.NewIncMatch(g.Clone(), q), ins)
			c.incDel = avgUnit(sim.NewInc(g.Clone(), q), del)
			c.compDel = avgUnit(sim.NewIncMatch(g.Clone(), q), del)
			return c
		}},
		{"DFS", "Fig 6(g,h)", func(d gen.Dataset) cell {
			var c cell
			g := buildDirected(d, cfg.Seed, cfg.Scale) // §5.2: DFS on directed graphs
			ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
			del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
			c.incIns = avgUnit(dfs.NewInc(g.Clone()), ins)
			c.compIns = avgUnit(dfs.NewDynDFS(g.Clone()), ins)
			c.incDel = avgUnit(dfs.NewInc(g.Clone()), del)
			c.compDel = avgUnit(dfs.NewDynDFS(g.Clone()), del)
			return c
		}},
		{"LCC", "Fig 6(i,j)", func(d gen.Dataset) cell {
			var c cell
			g := buildUndirected(d, cfg.Seed, cfg.Scale)
			ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
			del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
			c.incIns = avgUnit(lcc.NewInc(g.Clone()), ins)
			c.compIns = avgUnit(lcc.NewDynLCC(g.Clone()), ins)
			c.incDel = avgUnit(lcc.NewInc(g.Clone()), del)
			c.compDel = avgUnit(lcc.NewDynLCC(g.Clone()), del)
			return c
		}},
	}
	for _, cl := range classes {
		t := newTable(cfg.Out,
			fmt.Sprintf("%s %s: avg time per unit update (deduced vs competitor)", cl.panel, cl.name),
			"Dataset", "Inc ins", "Comp ins", "Inc del", "Comp del")
		for _, d := range gen.Datasets {
			c := cl.run(d)
			t.row(d.Name, ms(c.incIns), ms(c.compIns), ms(c.incDel), ms(c.compDel))
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
	measure := func(mk func(g *graph.Graph) applier, g *graph.Graph, vars int) (float64, float64) {
		ins := gen.UnitInsertions(newRNG(cfg.Seed), g, unitUpdateCount)
		del := gen.UnitDeletions(newRNG(cfg.Seed+1), g, unitUpdateCount)
		sum := func(m applier, b graph.Batch) float64 {
			tot := 0
			for _, u := range b {
				tot += m.Apply(graph.Batch{u})
			}
			return float64(tot) / float64(len(b)) / float64(vars)
		}
		return sum(mk(g.Clone()), ins), sum(mk(g.Clone()), del)
	}
	{
		g := d.Build(cfg.Seed, cfg.Scale)
		i, del := measure(func(g *graph.Graph) applier { return sssp.NewInc(g, 0) }, g, g.NumNodes())
		t.row("IncSSSP", pct(i), pct(del))
	}
	{
		g := buildUndirected(d, cfg.Seed, cfg.Scale)
		i, del := measure(func(g *graph.Graph) applier { return cc.NewInc(g) }, g, g.NumNodes())
		t.row("IncCC", pct(i), pct(del))
	}
	{
		g := d.Build(cfg.Seed, cfg.Scale)
		q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)
		i, del := measure(func(g *graph.Graph) applier { return sim.NewInc(g, q) }, g, g.NumNodes()*q.NumNodes())
		t.row("IncSim", pct(i), pct(del))
	}
	{
		g := buildDirected(d, cfg.Seed, cfg.Scale)
		i, del := measure(func(g *graph.Graph) applier { return dfs.NewInc(g) }, g, g.NumNodes())
		t.row("IncDFS", pct(i), pct(del))
	}
	{
		g := buildUndirected(d, cfg.Seed, cfg.Scale)
		i, del := measure(func(g *graph.Graph) applier { return lcc.NewInc(g) }, g, 2*g.NumNodes())
		t.row("IncLCC", pct(i), pct(del))
	}
	t.flush()
}
