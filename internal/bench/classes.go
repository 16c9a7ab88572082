package bench

import (
	"fmt"
	"slices"
	"strings"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// twin names the orientation of a dataset stand-in a class runs on.
type twin int

const (
	native     twin = iota // the dataset's own orientation
	directed               // §5.2 defines DFS on directed graphs
	undirected             // CC, LCC and BC
)

// build builds dataset d in the orientation tw names.
func (tw twin) build(d gen.Dataset, seed int64, scale float64) *graph.Graph {
	switch tw {
	case directed:
		d.Directed = true
	case undirected:
		d.Directed = false
	}
	return d.Build(seed, scale)
}

// inst is a class's one per-instance parameter: SSSP's source or Sim's
// pattern. The other classes ignore it.
type inst struct {
	src graph.NodeID
	q   *graph.Graph
}

// role picks a column's maintainer: the deduced A_Δ, its unit-update
// variant A_Δ_n (a second deduced maintainer fed one update at a time) or
// the batch-update competitor.
type role int

const (
	deducedRole role = iota
	unitRole
	compRole
)

// panel is one class's table in a batch-update figure.
type panel struct {
	title string // table title; in Exp2 a %s takes the dataset
	unit  bool   // the table has the A_Δ_n unit-update column
}

// class describes how §6 evaluates one query class: the batch algorithm
// A, the deduced A_Δ and the fine-tuned competitors, and the figures the
// class appears in. Every table-driven experiment loops over classes.
type class struct {
	key, name string // -class value ("sssp") and row label ("SSSP")
	twin      twin   // stand-in orientation; Exp3 runs native classes directed
	param     param  // what an instance varies, if anything

	batchName, incName, compName string // column labels of A, A_Δ and the competitor

	batch   func(g *graph.Graph, in inst) any
	deduced func(g *graph.Graph, in inst) audited
	// comp is the batch-update competitor (Figs. 7, 8 and Table 1) and
	// unitComp the unit-update one (Fig. 6); both nil for BC.
	comp, unitComp func(g *graph.Graph, in inst) applier
	// vars counts the status variables ExpAff divides |AFF| by.
	vars func(g *graph.Graph, in inst) int

	fig6    string    // Fig. 6 panel (Exp1, ExpAff, Exp4); "" when absent
	exp2    panel     // Exp2's table
	exp2On  []string  // Exp2's datasets
	exp2At  []float64 // Exp2's |ΔG| as % of |G|
	types   panel     // Fig. 7(g–i) on temporal WD; no title when absent
	scaling string    // Fig. 7(j–l) panel; "" when absent
	table1  bool      // a row of Table 1
}

// param is what a class's instances vary.
type param int

const (
	paramNone param = iota
	paramSource
	paramPattern
)

// classes lists the query classes in `incbench -exp exp2 -class all`
// order. Fig. 6's tables, ExpAff and Exp4 take them in fig6 panel order.
var classes = []*class{
	{
		key: "sssp", name: "SSSP", twin: native, param: paramSource,
		batchName: "Dijkstra", incName: "IncSSSP", compName: "DynDij",
		batch:    func(g *graph.Graph, in inst) any { return sssp.Dijkstra(g, in.src) },
		deduced:  func(g *graph.Graph, in inst) audited { return sssp.NewInc(g, in.src) },
		comp:     func(g *graph.Graph, in inst) applier { return sssp.NewDynDij(g, in.src) },
		unitComp: func(g *graph.Graph, in inst) applier { return sssp.NewRR(g, in.src) },
		vars:     func(g *graph.Graph, in inst) int { return g.NumNodes() },
		fig6:     "Fig 6(a,b)",
		exp2:     panel{"Fig 7(a/b) SSSP on %s: batch updates, |ΔG| as %% of |G|", true},
		exp2On:   []string{"FS", "TW"},
		exp2At:   []float64{2, 4, 8, 16, 32},
		types:    panel{"Fig 7(g) SSSP on temporal WD (per monthly window)", true},
		scaling:  "Fig 7(j)",
		table1:   true,
	},
	{
		key: "cc", name: "CC", twin: undirected,
		batchName: "CC_fp", incName: "IncCC", compName: "DynCC",
		batch:    func(g *graph.Graph, in inst) any { return cc.CCfp(g) },
		deduced:  func(g *graph.Graph, in inst) audited { return cc.NewInc(g) },
		comp:     func(g *graph.Graph, in inst) applier { return cc.NewDynCC(g) },
		unitComp: func(g *graph.Graph, in inst) applier { return cc.NewDynCC(g) },
		vars:     func(g *graph.Graph, in inst) int { return g.NumNodes() },
		fig6:     "Fig 6(c,d)",
		exp2:     panel{"Fig 7(c) CC on %s: batch updates", true},
		exp2On:   []string{"OKT", "LJ"},
		exp2At:   []float64{0.25, 1, 4, 16, 64},
		types:    panel{"Fig 7(h) CC on temporal WD", false},
		scaling:  "Fig 7(k)",
	},
	{
		key: "sim", name: "Sim", twin: native, param: paramPattern,
		batchName: "Sim_fp", incName: "IncSim", compName: "IncMatch",
		batch:    func(g *graph.Graph, in inst) any { return sim.Simfp(g, in.q) },
		deduced:  func(g *graph.Graph, in inst) audited { return sim.NewInc(g, in.q) },
		comp:     func(g *graph.Graph, in inst) applier { return sim.NewIncMatch(g, in.q) },
		unitComp: func(g *graph.Graph, in inst) applier { return sim.NewIncMatch(g, in.q) },
		vars:     func(g *graph.Graph, in inst) int { return g.NumNodes() * in.q.NumNodes() },
		fig6:     "Fig 6(e,f)",
		exp2:     panel{"Fig 7(d/e) Sim on %s: batch updates", true},
		exp2On:   []string{"DP", "FS"},
		exp2At:   []float64{4, 8, 16, 32, 64},
		types:    panel{"Fig 7(i) Sim on temporal WD", false},
		scaling:  "Fig 7(l)",
		table1:   true,
	},
	{
		key: "lcc", name: "LCC", twin: undirected,
		batchName: "LCC_fp", incName: "IncLCC", compName: "DynLCC",
		batch:    func(g *graph.Graph, in inst) any { return lcc.Run(g) },
		deduced:  func(g *graph.Graph, in inst) audited { return lcc.NewInc(g) },
		comp:     func(g *graph.Graph, in inst) applier { return lcc.NewDynLCC(g) },
		unitComp: func(g *graph.Graph, in inst) applier { return lcc.NewDynLCC(g) },
		vars:     func(g *graph.Graph, in inst) int { return 2 * g.NumNodes() },
		fig6:     "Fig 6(i,j)",
		exp2:     panel{"Fig 7(f) LCC on %s: batch updates", true},
		exp2On:   []string{"LJ", "OKT"},
		exp2At:   []float64{2, 4, 8, 16, 32},
		table1:   true,
	},
	{
		// The DFS paragraph of Exp-2(1e): IncDFS wins below ~1% and loses
		// past ~4%.
		key: "dfs", name: "DFS", twin: directed,
		batchName: "DFS_fp", incName: "IncDFS", compName: "DynDFS",
		batch:    func(g *graph.Graph, in inst) any { return dfs.Run(g) },
		deduced:  func(g *graph.Graph, in inst) audited { return dfs.NewInc(g) },
		comp:     func(g *graph.Graph, in inst) applier { return unitOnly{dfs.NewDynDFS(g)} },
		unitComp: func(g *graph.Graph, in inst) applier { return dfs.NewDynDFS(g) },
		vars:     func(g *graph.Graph, in inst) int { return g.NumNodes() },
		fig6:     "Fig 6(g,h)",
		exp2:     panel{"Exp-2(1e) DFS on %s: batch updates", false},
		exp2On:   []string{"OKT"},
		exp2At:   []float64{0.25, 0.5, 1, 2, 4, 8},
	},
	{
		// Biconnectivity, the class §3 names beyond the five of Exp-2. IncBC
		// revisits every connected component ΔG touches, so on a graph that
		// is one component its time stays near BC_fp's at any |ΔG|.
		key: "bc", name: "BC", twin: undirected,
		batchName: "BC_fp", incName: "IncBC",
		batch:   func(g *graph.Graph, in inst) any { return bc.Run(g) },
		deduced: func(g *graph.Graph, in inst) audited { return bc.NewInc(g) },
		exp2:    panel{"Exp-2 BC on %s: batch updates", false},
		exp2On:  []string{"OKT"},
		exp2At:  []float64{0.25, 0.5, 1, 2, 4, 8},
	},
}

// Classes returns the query-class keys Exp2 accepts, in the order
// `-class all` runs them.
func Classes() []string {
	keys := make([]string, len(classes))
	for i, c := range classes {
		keys[i] = c.key
	}
	return keys
}

func classByKey(key string) *class {
	for _, c := range classes {
		if c.key == key {
			return c
		}
	}
	panic(fmt.Sprintf("bench: unknown class %q", key))
}

// fig6Classes returns the classes of Fig. 6 in its panel order.
func fig6Classes() []*class {
	var out []*class
	for _, c := range classes {
		if c.fig6 != "" {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *class) int { return strings.Compare(a.fig6, b.fig6) })
	return out
}

// inst returns the instance every experiment but Table 1 runs: source 0,
// or the pattern drawn from seed+2.
func (c *class) inst(cfg Config) inst {
	if c.param == paramPattern {
		return inst{q: gen.Pattern(newRNG(cfg.Seed+2), 4, 6, gen.Alphabet)}
	}
	return inst{}
}

// sample returns Table 1's instances. As in the paper's setup, SSSP
// averages over sampled sources and Sim over sampled patterns (the paper
// uses 20 and 5; we use 5 and 3 at this scale).
func (c *class) sample(cfg Config, g *graph.Graph) []inst {
	switch c.param {
	case paramSource:
		rng := newRNG(cfg.Seed + 3)
		ins := make([]inst, 5)
		for i := range ins {
			ins[i].src = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		return ins
	case paramPattern:
		ins := make([]inst, 3)
		for i := range ins {
			ins[i].q = gen.Pattern(newRNG(cfg.Seed+1+int64(i)), 4, 6, gen.Alphabet)
		}
		return ins
	}
	return []inst{{}}
}

// maintainer builds the maintainer of role r on g.
func (c *class) maintainer(r role, g *graph.Graph, in inst) applier {
	if r == compRole {
		return c.comp(g, in)
	}
	return c.deduced(g, in)
}

// fresh makes every maintainer on its own clone of g.
func (c *class) fresh(g *graph.Graph, in inst) func(role) applier {
	return func(r role) applier { return c.maintainer(r, g.Clone(), in) }
}

// columns labels the timed columns of a batch-update table: A, A_Δ, A_Δ_n
// when unit, and the competitor when the class has one.
func (c *class) columns(unit bool) []string {
	cols := []string{c.batchName, c.incName}
	if unit {
		cols = append(cols, c.incName+"_n")
	}
	if c.comp != nil {
		cols = append(cols, c.compName)
	}
	return cols
}

// row times one row of a batch-update table on delta, in the order of
// columns(unit): A on updated, the deduced A_Δ's repair, the unit-update
// feed of A_Δ_n and the competitor's repair. mk yields each maintainer
// just before its column is timed. The Result carries the timings, the
// repair's |AFF| and its work ledger (whose Work() and work / |ΔG| the
// perf gate holds across commits); the Stats are the repair's own.
func (c *class) row(updated *graph.Graph, delta graph.Batch, in inst, unit bool, mk func(role) applier) ([]any, Result, fixpoint.Stats) {
	batch := stopwatch(func() { c.batch(updated, in) })
	inc := mk(deducedRole).(audited)
	before := inc.Stats()
	incT, aff := timeRepairAff(inc, delta)
	st := inc.Stats().Sub(before)
	cells := []any{batch, incT}
	if unit {
		incN := mk(unitRole)
		cells = append(cells, stopwatch(func() { applyUnits(incN, delta) }))
	}
	if c.comp != nil {
		cells = append(cells, timeRepair(mk(compRole), delta))
	}
	led := st.Ledger
	led.Delta = int64(len(delta))
	return cells, Result{Algo: c.incName, BatchSeconds: batch, IncSeconds: incT, Affected: aff,
		Work: led.Work(), BoundedRatio: led.BoundedRatio()}, st
}

// batchUpdate draws n random updates of g, half of them insertions, and
// returns them with G ⊕ ΔG.
func batchUpdate(cfg Config, g *graph.Graph, n int) (graph.Batch, *graph.Graph) {
	delta := gen.RandomUpdates(newRNG(cfg.Seed), g, n, 0.5)
	updated := g.Clone()
	updated.Apply(delta)
	return delta, updated
}
