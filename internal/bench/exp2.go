package bench

import (
	"fmt"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// deltaSize converts a percentage of |G| = |V| + |E| into an update count.
func deltaSize(g *graph.Graph, percent float64) int {
	n := int(percent / 100 * float64(g.Size()))
	if n < 1 {
		n = 1
	}
	return n
}

// Exp2SSSP regenerates Fig. 7(a,b): SSSP under batch updates of growing
// size on the FS and TW stand-ins.
func Exp2SSSP(cfg Config) {
	for _, name := range []string{"FS", "TW"} {
		d, _ := gen.ByName(name)
		g := d.Build(cfg.Seed, cfg.Scale)
		t := newTable(cfg.Out,
			fmt.Sprintf("Fig 7(a/b) SSSP on %s: batch updates, |ΔG| as %% of |G|", name),
			"|ΔG|", "Dijkstra", "IncSSSP", "IncSSSP_n", "DynDij")
		for _, p := range []float64{2, 4, 8, 16, 32} {
			delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
			updated := g.Clone()
			updated.Apply(delta)
			batch := stopwatch(func() { sssp.Dijkstra(updated, 0) })
			inc := sssp.NewInc(g.Clone(), 0)
			incT, aff, work, ratio := timeRepairLedger(inc, delta)
			incN := sssp.NewInc(g.Clone(), 0)
			incNT := stopwatch(func() { applyUnits(incN, delta) })
			dd := sssp.NewDynDij(g.Clone(), 0)
			ddT := timeRepair(dd, delta)
			t.row(fmt.Sprintf("%g%%", p), batch, incT, incNT, ddT)
			cfg.report(Result{Experiment: "exp2-sssp", Dataset: name, Algo: "IncSSSP",
				Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
				BatchSeconds: batch, IncSeconds: incT, Affected: aff,
				Work: work, BoundedRatio: ratio})
		}
		t.flush()
	}
}

// Exp2CC regenerates Fig. 7(c): CC under batch updates on the OKT
// stand-in (LJ's twin behaves consistently, as the paper notes).
func Exp2CC(cfg Config) {
	for _, name := range []string{"OKT", "LJ"} {
		d, _ := gen.ByName(name)
		g := buildUndirected(d, cfg.Seed, cfg.Scale)
		t := newTable(cfg.Out,
			fmt.Sprintf("Fig 7(c) CC on %s: batch updates", name),
			"|ΔG|", "CC_fp", "IncCC", "IncCC_n", "DynCC")
		for _, p := range []float64{0.25, 1, 4, 16, 64} {
			delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
			updated := g.Clone()
			updated.Apply(delta)
			batch := stopwatch(func() { cc.CCfp(updated) })
			inc := cc.NewInc(g.Clone())
			incT, aff, work, ratio := timeRepairLedger(inc, delta)
			incN := cc.NewInc(g.Clone())
			incNT := stopwatch(func() { applyUnits(incN, delta) })
			dyn := cc.NewDynCC(g.Clone())
			dynT := stopwatch(func() { dyn.Apply(delta) })
			t.row(fmt.Sprintf("%g%%", p), batch, incT, incNT, dynT)
			cfg.report(Result{Experiment: "exp2-cc", Dataset: name, Algo: "IncCC",
				Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
				BatchSeconds: batch, IncSeconds: incT, Affected: aff,
				Work: work, BoundedRatio: ratio})
		}
		t.flush()
	}
}

// Exp2Sim regenerates Fig. 7(d,e): Sim under batch updates on the DP and
// FS stand-ins, |Q| = (4, 6).
func Exp2Sim(cfg Config) {
	q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)
	for _, name := range []string{"DP", "FS"} {
		d, _ := gen.ByName(name)
		g := d.Build(cfg.Seed, cfg.Scale)
		t := newTable(cfg.Out,
			fmt.Sprintf("Fig 7(d/e) Sim on %s: batch updates", name),
			"|ΔG|", "Sim_fp", "IncSim", "IncSim_n", "IncMatch")
		for _, p := range []float64{4, 8, 16, 32, 64} {
			delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
			updated := g.Clone()
			updated.Apply(delta)
			batch := stopwatch(func() { sim.Simfp(updated, q) })
			inc := sim.NewInc(g.Clone(), q)
			incT, aff, work, ratio := timeRepairLedger(inc, delta)
			incN := sim.NewInc(g.Clone(), q)
			incNT := stopwatch(func() { applyUnits(incN, delta) })
			im := sim.NewIncMatch(g.Clone(), q)
			imT := timeRepair(im, delta)
			t.row(fmt.Sprintf("%g%%", p), batch, incT, incNT, imT)
			cfg.report(Result{Experiment: "exp2-sim", Dataset: name, Algo: "IncSim",
				Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
				BatchSeconds: batch, IncSeconds: incT, Affected: aff,
				Work: work, BoundedRatio: ratio})
		}
		t.flush()
	}
}

// Exp2LCC regenerates Fig. 7(f): LCC under batch updates on the LJ and
// OKT stand-ins (undirected twins).
func Exp2LCC(cfg Config) {
	for _, name := range []string{"LJ", "OKT"} {
		d, _ := gen.ByName(name)
		g := buildUndirected(d, cfg.Seed, cfg.Scale)
		t := newTable(cfg.Out,
			fmt.Sprintf("Fig 7(f) LCC on %s: batch updates", name),
			"|ΔG|", "LCC_fp", "IncLCC", "IncLCC_n", "DynLCC")
		for _, p := range []float64{2, 4, 8, 16, 32} {
			delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
			updated := g.Clone()
			updated.Apply(delta)
			batch := stopwatch(func() { lcc.Run(updated) })
			inc := lcc.NewInc(g.Clone())
			incT, aff, work, ratio := timeRepairLedger(inc, delta)
			incN := lcc.NewInc(g.Clone())
			incNT := stopwatch(func() { applyUnits(incN, delta) })
			dyn := lcc.NewDynLCC(g.Clone())
			dynT := stopwatch(func() { dyn.Apply(delta) })
			t.row(fmt.Sprintf("%g%%", p), batch, incT, incNT, dynT)
			cfg.report(Result{Experiment: "exp2-lcc", Dataset: name, Algo: "IncLCC",
				Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
				BatchSeconds: batch, IncSeconds: incT, Affected: aff,
				Work: work, BoundedRatio: ratio})
		}
		t.flush()
	}
}

// Exp2DFS regenerates the DFS paragraph of Exp-2(1e): IncDFS vs DynDFS vs
// DFS_fp on the OKT stand-in; IncDFS wins below ~1% and loses past ~4%.
func Exp2DFS(cfg Config) {
	d, _ := gen.ByName("OKT")
	g := buildDirected(d, cfg.Seed, cfg.Scale) // §5.2: DFS on directed graphs
	t := newTable(cfg.Out, "Exp-2(1e) DFS on OKT: batch updates",
		"|ΔG|", "DFS_fp", "IncDFS", "DynDFS")
	for _, p := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
		updated := g.Clone()
		updated.Apply(delta)
		batch := stopwatch(func() { dfs.Run(updated) })
		inc := dfs.NewInc(g.Clone())
		incT, aff, work, ratio := timeRepairLedger(inc, delta)
		dyn := dfs.NewDynDFS(g.Clone())
		dynT := stopwatch(func() { dyn.Apply(delta) })
		t.row(fmt.Sprintf("%g%%", p), batch, incT, dynT)
		cfg.report(Result{Experiment: "exp2-dfs", Dataset: "OKT", Algo: "IncDFS",
			Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
			BatchSeconds: batch, IncSeconds: incT, Affected: aff,
			Work: work, BoundedRatio: ratio})
	}
	t.flush()
}

// Exp2BC is the batch-update table of biconnectivity, the class §3 names
// beyond the five of Exp-2: IncBC vs the lowpoint run BC_fp on the OKT
// stand-in. IncBC revisits every connected component ΔG touches, so on a
// graph that is one component its time stays near BC_fp's at any |ΔG|.
func Exp2BC(cfg Config) {
	d, _ := gen.ByName("OKT")
	g := buildUndirected(d, cfg.Seed, cfg.Scale)
	t := newTable(cfg.Out, "Exp-2 BC on OKT: batch updates", "|ΔG|", "BC_fp", "IncBC")
	for _, p := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		delta := gen.RandomUpdates(newRNG(cfg.Seed), g, deltaSize(g, p), 0.5)
		updated := g.Clone()
		updated.Apply(delta)
		batch := stopwatch(func() { bc.Run(updated) })
		incT, aff, work, ratio := timeRepairLedger(bc.NewInc(g.Clone()), delta)
		t.row(fmt.Sprintf("%g%%", p), batch, incT)
		cfg.report(Result{Experiment: "exp2-bc", Dataset: "OKT", Algo: "IncBC",
			Workload:     fmt.Sprintf("|ΔG|=%g%%", p),
			BatchSeconds: batch, IncSeconds: incT, Affected: aff,
			Work: work, BoundedRatio: ratio})
	}
	t.flush()
}

// Exp2Types regenerates Fig. 7(g,h,i): real-life-shaped temporal updates
// on the WD stand-in — five monthly windows, each ~1.9% of |G| with an
// 81%/19% insertion/deletion mix — for SSSP, CC and Sim, including the
// fraction of incremental time spent in the scope function h.
func Exp2Types(cfg Config) {
	d, _ := gen.ByName("WD")
	const windows = 5
	tp := d.BuildTemporal(cfg.Seed, cfg.Scale, windows)
	g0 := tp.Snapshot(0)
	q := gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)

	incS := sssp.NewInc(g0.Clone(), 0)
	incSN := sssp.NewInc(g0.Clone(), 0)
	dynS := sssp.NewDynDij(g0.Clone(), 0)
	incC := cc.NewInc(g0.Clone())
	dynC := cc.NewDynCC(g0.Clone())
	incM := sim.NewInc(g0.Clone(), q)
	im := sim.NewIncMatch(g0.Clone(), q)

	var rowsS, rowsC, rowsM [][]any
	cur := g0.Clone()
	for w := int64(1); w <= windows; w++ {
		// Netted once here, so every column of a row sees one ΔG: the
		// deduced algorithms take the window as it comes, while DynDij and
		// IncMatch net whatever they are given.
		delta := tp.Window(w-1, w).Net(cur.Directed())
		cur.Apply(delta)

		batchS := stopwatch(func() { sssp.Dijkstra(cur, 0) })
		s0 := incS.Stats()
		iS, affS, workS, ratioS := timeRepairLedger(incS, delta)
		s1 := incS.Stats()
		iSN := stopwatch(func() { applyUnits(incSN, delta) })
		dS := timeRepair(dynS, delta)
		hfrac := "-"
		if dt := (s1.HSeconds + s1.ResumeSeconds) - (s0.HSeconds + s0.ResumeSeconds); dt > 0 {
			hfrac = pct((s1.HSeconds - s0.HSeconds) / dt)
		}
		rowsS = append(rowsS, []any{fmt.Sprintf("M%d", w), batchS, iS, iSN, dS, hfrac})
		cfg.report(Result{Experiment: "exp2-types", Dataset: "WD", Algo: "IncSSSP",
			Workload:     fmt.Sprintf("M%d", w),
			BatchSeconds: batchS, IncSeconds: iS, Affected: affS,
			Work: workS, BoundedRatio: ratioS})

		batchC := stopwatch(func() { cc.CCfp(cur) })
		c0 := incC.Stats()
		iC, affC, workC, ratioC := timeRepairLedger(incC, delta)
		c1 := incC.Stats()
		dC := stopwatch(func() { dynC.Apply(delta) })
		hfrac = "-"
		if dt := (c1.HSeconds + c1.ResumeSeconds) - (c0.HSeconds + c0.ResumeSeconds); dt > 0 {
			hfrac = pct((c1.HSeconds - c0.HSeconds) / dt)
		}
		rowsC = append(rowsC, []any{fmt.Sprintf("M%d", w), batchC, iC, dC, hfrac})
		cfg.report(Result{Experiment: "exp2-types", Dataset: "WD", Algo: "IncCC",
			Workload:     fmt.Sprintf("M%d", w),
			BatchSeconds: batchC, IncSeconds: iC, Affected: affC,
			Work: workC, BoundedRatio: ratioC})

		batchM := stopwatch(func() { sim.Simfp(cur, q) })
		m0 := incM.Stats()
		iM, affM, workM, ratioM := timeRepairLedger(incM, delta)
		m1 := incM.Stats()
		dM := timeRepair(im, delta)
		hfrac = "-"
		if dt := (m1.HSeconds + m1.ResumeSeconds) - (m0.HSeconds + m0.ResumeSeconds); dt > 0 {
			hfrac = pct((m1.HSeconds - m0.HSeconds) / dt)
		}
		rowsM = append(rowsM, []any{fmt.Sprintf("M%d", w), batchM, iM, dM, hfrac})
		cfg.report(Result{Experiment: "exp2-types", Dataset: "WD", Algo: "IncSim",
			Workload:     fmt.Sprintf("M%d", w),
			BatchSeconds: batchM, IncSeconds: iM, Affected: affM,
			Work: workM, BoundedRatio: ratioM})
	}
	render := func(title string, header []string, rows [][]any) {
		t := newTable(cfg.Out, title, header...)
		for _, r := range rows {
			t.row(r...)
		}
		t.flush()
	}
	render("Fig 7(g) SSSP on temporal WD (per monthly window)",
		[]string{"Window", "Dijkstra", "IncSSSP", "IncSSSP_n", "DynDij", "h-fraction"}, rowsS)
	render("Fig 7(h) CC on temporal WD",
		[]string{"Window", "CC_fp", "IncCC", "DynCC", "h-fraction"}, rowsC)
	render("Fig 7(i) Sim on temporal WD",
		[]string{"Window", "Sim_fp", "IncSim", "IncMatch", "h-fraction"}, rowsM)
}
