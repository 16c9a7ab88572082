package bench

import (
	"fmt"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// deltaSize converts a percentage of |G| = |V| + |E| into an update count.
func deltaSize(g *graph.Graph, percent float64) int {
	n := int(percent / 100 * float64(g.Size()))
	if n < 1 {
		n = 1
	}
	return n
}

// Exp2 regenerates one class's batch-update table (key is one of
// Classes()): Fig. 7(a–f) for SSSP, CC, Sim and LCC, the DFS paragraph of
// Exp-2(1e), and BC's table. Each row times A on G ⊕ ΔG against the
// deduced A_Δ and, where the table has them, its unit-update variant and
// the competitor, with |ΔG| a growing share of |G|.
func Exp2(cfg Config, key string) {
	c := classByKey(key)
	in := c.inst(cfg)
	for _, name := range c.exp2On {
		d, _ := gen.ByName(name)
		g := c.twin.build(d, cfg.Seed, cfg.Scale)
		t := newTable(cfg.Out, fmt.Sprintf(c.exp2.title, name),
			append([]string{"|ΔG|"}, c.columns(c.exp2.unit)...)...)
		for _, p := range c.exp2At {
			delta, updated := batchUpdate(cfg, g, deltaSize(g, p))
			cells, r, _ := c.row(updated, delta, in, c.exp2.unit, c.fresh(g, in))
			size := fmt.Sprintf("%g%%", p)
			t.row(append([]any{size}, cells...)...)
			r.Experiment, r.Dataset, r.Workload = "exp2-"+c.key, name, "|ΔG|="+size
			cfg.report(r)
		}
		t.flush()
	}
}

// Exp2Types regenerates Fig. 7(g,h,i): real-life-shaped temporal updates
// on the WD stand-in — five monthly windows, each ~1.9% of |G| with an
// 81%/19% insertion/deletion mix — for SSSP, CC and Sim, including the
// fraction of incremental time spent in the scope function h. Every class
// runs on the snapshot as built, in WD's own orientation.
func Exp2Types(cfg Config) {
	d, _ := gen.ByName("WD")
	const windows = 5
	tp := d.BuildTemporal(cfg.Seed, cfg.Scale, windows)
	g0 := tp.Snapshot(0)

	// A lane keeps one class's maintainers across the windows and buffers
	// its rows, since each class's table prints after the last window.
	type lane struct {
		c    *class
		in   inst
		kept [3]applier // by role
		rows [][]any
	}
	var lanes []*lane
	for _, c := range classes {
		if c.types.title == "" {
			continue
		}
		l := &lane{c: c, in: c.inst(cfg)}
		for r := deducedRole; r <= compRole; r++ {
			if r != unitRole || c.types.unit {
				l.kept[r] = c.maintainer(r, g0.Clone(), l.in)
			}
		}
		lanes = append(lanes, l)
	}

	cur := g0.Clone()
	for w := int64(1); w <= windows; w++ {
		// Netted once here, so every column of a row sees one ΔG: the
		// deduced algorithms take the window as it comes, while DynDij and
		// IncMatch net whatever they are given.
		delta := tp.Window(w-1, w).Net(cur.Directed())
		cur.Apply(delta)
		window := fmt.Sprintf("M%d", w)
		for _, l := range lanes {
			cells, r, st := l.c.row(cur, delta, l.in, l.c.types.unit, func(r role) applier { return l.kept[r] })
			hfrac := "-"
			if dt := st.HSeconds + st.ResumeSeconds; dt > 0 {
				hfrac = pct(st.HSeconds / dt)
			}
			l.rows = append(l.rows, append(append([]any{window}, cells...), hfrac))
			r.Experiment, r.Dataset, r.Workload = "exp2-types", "WD", window
			cfg.report(r)
		}
	}
	for _, l := range lanes {
		t := newTable(cfg.Out, l.c.types.title,
			append(append([]string{"Window"}, l.c.columns(l.c.types.unit)...), "h-fraction")...)
		for _, r := range l.rows {
			t.row(r...)
		}
		t.flush()
	}
}
