package incgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// flatStream builds a random update stream against g's current state: a
// third deletions of edges that exist (so rows really shift and empty),
// the rest weighted insertions (enough to fill rows and move them;
// re-inserting an existing edge replaces its weight, a delete and an
// insert of one entry in one batch).
func flatStream(rng *rand.Rand, g *graph.Graph, length int) graph.Batch {
	n := g.NumNodes()
	b := make(graph.Batch, 0, length)
	for len(b) < length {
		u := graph.NodeID(rng.Intn(n))
		if rng.Intn(3) == 0 {
			if out := g.Out(u); len(out) > 0 {
				b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: out[rng.Intn(len(out))].To})
			}
			continue
		}
		if v := graph.NodeID(rng.Intn(n)); v != u {
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: int64(rng.Intn(9) + 1)})
		}
	}
	return b
}

const flatNodes, flatChunks, flatChunkLen = 160, 6, 40

// flatThresholds are the compaction regimes the differential runs under:
// compact after every batch, compact several times mid-stream, the
// production default, and never compact on dead space (the view compacts
// only when a moving row finds the arrays full).
var flatThresholds = []float64{0, 0.05, graph.DefaultCompactThreshold, math.Inf(1)}

// flatLedgers is what one run of the differential hands back for
// comparison across thresholds and against flatGolden.
type flatLedgers struct{ sssp, cc, lcc, dfs, bc, sim fixpoint.WorkLedger }

// flatGolden pins the work accounting of the six flat-backed maintainers:
// their cumulative Portable ledgers after the whole stream of the given
// seed. SSSP's and CC's were recorded at commit b3499a2, the last
// one that still carried adjacency-list copies of the maintainer loops and
// asserted flat ≡ legacy ledgers bit for bit, so a change in what the
// maintainers count as CHANGED / AFF / ‖AFF‖ shows here even though no
// second implementation is left to compare against; LCC's when its scope
// became the input-set rule, which internal/lcc's TestScopeIsInputSet holds
// against the definition; DFS's and BC's when they began to keep one, and
// their packages' differentials hold Changed against the vectors before and
// after; Sim's at commit ae2e7f6, the last whose IncSim read the graph's
// rows. (Portable zeroes Rounds, which depends on row scan order.)
var flatGolden = map[int64]flatLedgers{
	1: {
		sssp: fixpoint.WorkLedger{Runs: 6, Touched: 229, Seeds: 149, Changed: 312, Aff: 413, AffEdges: 1748, RecomputeEst: 160},
		cc:   fixpoint.WorkLedger{Runs: 6, Touched: 145, Seeds: 266, Changed: 6, Aff: 380, AffEdges: 2027, RecomputeEst: 160},
		lcc:  fixpoint.WorkLedger{Runs: 6, Touched: 233, Changed: 389, Aff: 408, RecomputeEst: 160},
		dfs:  fixpoint.WorkLedger{Runs: 6, Touched: 233, Changed: 903, Aff: 960, AffEdges: 4352, RecomputeEst: 160},
		bc:   fixpoint.WorkLedger{Runs: 6, Touched: 233, Changed: 30, Aff: 953, AffEdges: 4352, RecomputeEst: 160},
		sim:  fixpoint.WorkLedger{Runs: 6, Touched: 848, Changed: 10, Aff: 886, AffEdges: 2329, RecomputeEst: 640},
	},
	2: {
		sssp: fixpoint.WorkLedger{Runs: 6, Touched: 239, Seeds: 157, Changed: 436, Aff: 517, AffEdges: 2423, RecomputeEst: 160},
		cc:   fixpoint.WorkLedger{Runs: 6, Touched: 153, Seeds: 260, Changed: 11, Aff: 377, AffEdges: 1811, RecomputeEst: 160},
		lcc:  fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 373, Aff: 393, RecomputeEst: 160},
		dfs:  fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 931, Aff: 960, AffEdges: 4212, RecomputeEst: 160},
		bc:   fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 34, Aff: 950, AffEdges: 4212, RecomputeEst: 160},
		sim:  fixpoint.WorkLedger{Runs: 6, Touched: 864, Aff: 866, AffEdges: 2330, RecomputeEst: 640},
	},
	3: {
		sssp: fixpoint.WorkLedger{Runs: 6, Touched: 235, Seeds: 167, Changed: 265, Aff: 378, AffEdges: 1911, RecomputeEst: 160},
		cc:   fixpoint.WorkLedger{Runs: 6, Touched: 132, Seeds: 267, Changed: 3, Aff: 366, AffEdges: 2016, RecomputeEst: 160},
		lcc:  fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 364, Aff: 383, RecomputeEst: 160},
		dfs:  fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 916, Aff: 959, AffEdges: 4480, RecomputeEst: 160},
		bc:   fixpoint.WorkLedger{Runs: 6, Touched: 232, Changed: 24, Aff: 958, AffEdges: 4482, RecomputeEst: 160},
		sim:  fixpoint.WorkLedger{Runs: 6, Touched: 840, Changed: 7, Aff: 840, AffEdges: 2500, RecomputeEst: 640},
	},
	20210620: {
		sssp: fixpoint.WorkLedger{Runs: 6, Touched: 238, Seeds: 161, Changed: 431, Aff: 508, AffEdges: 2355, RecomputeEst: 160},
		cc:   fixpoint.WorkLedger{Runs: 6, Touched: 151, Seeds: 262, Changed: 5, Aff: 366, AffEdges: 1980, RecomputeEst: 160},
		lcc:  fixpoint.WorkLedger{Runs: 6, Touched: 236, Changed: 354, Aff: 379, RecomputeEst: 160},
		dfs:  fixpoint.WorkLedger{Runs: 6, Touched: 236, Changed: 899, Aff: 960, AffEdges: 4358, RecomputeEst: 160},
		bc:   fixpoint.WorkLedger{Runs: 6, Touched: 236, Changed: 23, Aff: 958, AffEdges: 4358, RecomputeEst: 160},
		sim:  fixpoint.WorkLedger{Runs: 6, Touched: 812, Aff: 812, AffEdges: 2080, RecomputeEst: 640},
	},
}

// runFlatDifferential drives the six flat-backed maintainers (SSSP, Sim,
// CC, BC, DFS, LCC) over seed's update stream at one compaction threshold
// and requires Theorem 1 after every chunk: the maintained state equals the
// batch algorithm's on G ⊕ ΔG. No batch run reads a staged Flat (the rule
// graph/store.go states): Dijkstra, CCfp and sim.Naive read the
// graph.Graph, Simfp, dfs.Run, bc.Run and lcc.Run a fresh graph.NewFlat of
// it — rows laid out by the code a compaction runs, which
// TestFlatAgainstGraphModel holds to the Graph's — so a staging bug cannot
// cancel out on both sides of the comparison.
func runFlatDifferential(t *testing.T, seed int64, threshold float64) (flatLedgers, bool) {
	rng := rand.New(rand.NewSource(seed))
	gd := PowerLawGraph(seed+1, flatNodes, 4, true)
	gu := PowerLawGraph(seed+2, flatNodes, 4, false)
	pattern := RandomPattern(seed+3, 4, 5, 3)

	s := sssp.NewInc(gd, 0)
	si := sim.NewInc(gd.Clone(), pattern)
	c := cc.NewInc(gu.Clone())
	b := bc.NewInc(gu.Clone())
	d := dfs.NewInc(gu.Clone())
	l := lcc.NewInc(gu.Clone())
	flats := []*graph.Flat{s.Graph().Flat(), si.Graph().Flat(), c.Graph().Flat(), b.Graph().Flat(), d.Graph().Flat(), l.Graph().Flat()}
	for _, f := range flats {
		f.SetCompactThreshold(threshold)
	}

	fail := func(chunk int, what string) (flatLedgers, bool) {
		t.Errorf("seed %d threshold %g chunk %d: %s", seed, threshold, chunk, what)
		return flatLedgers{}, false
	}
	for i := 0; i < flatChunks; i++ {
		dStream := flatStream(rng, s.Graph(), flatChunkLen)
		uStream := flatStream(rng, c.Graph(), flatChunkLen)

		s.Apply(dStream)
		if !reflect.DeepEqual(s.Dist(), sssp.Dijkstra(s.Graph(), 0)) {
			return fail(i, "sssp distances diverged from Dijkstra")
		}
		si.Apply(dStream)
		if !simRecomputes(si.Relation(), si.Graph(), pattern) {
			return fail(i, "sim relation diverged from Simfp or Naive")
		}
		c.Apply(uStream)
		if !reflect.DeepEqual(c.Labels(), cc.CCfp(c.Graph())) {
			return fail(i, "cc labels diverged from CCfp")
		}
		b.Apply(uStream)
		if !b.Result().Equivalent(bc.Run(b.Graph()), b.Graph()) {
			return fail(i, "bc result diverged from bc.Run")
		}
		d.Apply(uStream)
		if !d.Tree().IsValid(d.Graph()) {
			return fail(i, "dfs tree invalid after repair")
		}
		// The canonical traversal is a unique function of the graph, so the
		// flat rows must enumerate into the SAME tree the batch run builds.
		if !d.Tree().Equal(dfs.Run(d.Graph())) {
			return fail(i, "dfs tree diverged from dfs.Run")
		}
		l.Apply(uStream)
		if !l.Result().Equal(lcc.Run(l.Graph())) {
			return fail(i, "lcc result diverged from lcc.Run")
		}
	}
	graphs := []*graph.Graph{s.Graph(), si.Graph(), c.Graph(), b.Graph(), d.Graph(), l.Graph()}
	for k, f := range flats {
		switch {
		case threshold <= 0 && f.OverlayRatio() != 0:
			return fail(flatChunks, "dead space left after a compact-always stream")
		case math.IsInf(threshold, 1) && f.MaybeCompact(graphs[k]):
			return fail(flatChunks, "view compacted on dead space although the threshold is infinite")
		case threshold == 0.05 && f.Compactions() == 0:
			return fail(flatChunks, "view never compacted at threshold 0.05")
		}
	}
	ledgers := flatLedgers{s.Stats().Ledger.Portable(), c.Stats().Ledger.Portable(), l.Stats().Ledger.Portable(),
		d.Stats().Ledger.Portable(), b.Stats().Ledger.Portable(), si.Stats().Ledger.Portable()}
	// Compaction rebuilds into the arrays it replaces, and writes every row
	// in order without sorting: once a view has compacted at this size,
	// compacting again allocates nothing.
	for k, g := range graphs {
		f := flats[k]
		if allocs := testing.AllocsPerRun(2, func() { f.Compact(g) }); allocs > 0 {
			return fail(flatChunks, fmt.Sprintf("view %d: compacting an unchanged graph allocates %.0f objects", k, allocs))
		}
	}
	// And the maintainers read the refilled arrays like fresh ones.
	s.Apply(flatStream(rng, s.Graph(), flatChunkLen))
	if !reflect.DeepEqual(s.Dist(), sssp.Dijkstra(s.Graph(), 0)) {
		return fail(flatChunks, "sssp distances diverged from Dijkstra after compacting in place")
	}
	return ledgers, true
}

// flatSeed runs one seed under every threshold. Rows are sorted in every
// regime, and what differs — where the rows sit in the arrays, and when
// they are laid out again — must not change what a maintainer counts: the
// Portable ledgers are equal across the regimes. sim.IncEngine, which reads
// the graph's rows, is checked against both Sim batch runs once per seed.
func flatSeed(t *testing.T, seed int64) bool {
	var first flatLedgers
	for k, th := range flatThresholds {
		got, ok := runFlatDifferential(t, seed, th)
		if !ok {
			return false
		}
		if k == 0 {
			first = got
		} else if got != first {
			t.Errorf("seed %d: ledgers differ between thresholds %g and %g:\n%+v\n%+v", seed, flatThresholds[0], th, first, got)
			return false
		}
	}
	if want, ok := flatGolden[seed]; ok && first != want {
		t.Errorf("seed %d: ledgers moved off the recorded golden values:\ngot  %+v\nwant %+v", seed, first, want)
		return false
	}

	rng := rand.New(rand.NewSource(seed))
	pattern := RandomPattern(seed+3, 4, 5, 3)
	simEng := sim.NewIncEngine(PowerLawGraph(seed+1, flatNodes, 4, true), pattern)
	for i := 0; i < flatChunks; i++ {
		simEng.Apply(flatStream(rng, simEng.Graph(), flatChunkLen))
		if !simRecomputes(simEng.Relation(), simEng.Graph(), pattern) {
			t.Errorf("seed %d chunk %d: sim relation diverged from recompute", seed, i)
			return false
		}
	}
	return true
}

// simRecomputes holds a maintained relation to both batch runs on g:
// Simfp, which runs IncSim's own counter cascade, and Naive, which
// shares no code with any maintainer.
func simRecomputes(r sim.Relation, g, pattern *graph.Graph) bool {
	return r.Equal(sim.Simfp(g, pattern)) && r.Equal(sim.Naive(g, pattern))
}

// TestFlatDifferentialSixClass is the whole-fleet differential test of
// the flat (sorted-span) execution core: every class against batch
// recompute after every chunk, the five flat-backed ones under each
// compaction regime, on the golden seeds and on fresh ones from
// testing/quick.
func TestFlatDifferentialSixClass(t *testing.T) {
	for seed := range flatGolden {
		flatSeed(t, seed)
	}
	if err := quick.Check(func(seed int64) bool { return flatSeed(t, seed) }, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// churnStream is flatStream's output with churn mixed in, what a
// maintainer sees when nobody nets its batch: now and then an insert of
// an absent edge followed by its delete, the same update twice, or an
// existing edge deleted and re-inserted at a new weight.
func churnStream(rng *rand.Rand, g *graph.Graph, length int) graph.Batch {
	n := g.NumNodes()
	var b graph.Batch
	for _, up := range flatStream(rng, g, length) {
		b = append(b, up)
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		switch rng.Intn(8) {
		case 0:
			if u != v && !g.HasEdge(u, v) {
				b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: int64(rng.Intn(9) + 1)},
					graph.Update{Kind: graph.DeleteEdge, From: u, To: v})
			}
		case 1:
			b = append(b, up)
		case 2:
			if out := g.Out(u); len(out) > 0 {
				e := out[rng.Intn(len(out))]
				b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: e.To},
					graph.Update{Kind: graph.InsertEdge, From: u, To: e.To, W: e.W%9 + 1})
			}
		}
	}
	return b
}

// churnMaintainer is one maintainer under the churn differential, with
// the check of its state against the batch algorithm on its own graph.
type churnMaintainer struct {
	name  string
	apply func(graph.Batch) int
	ok    func() bool
}

// churnMaintainers builds, each on its own copy of g, every batch
// maintainer — each takes any update sequence, the competitors DynDij and
// IncMatch by netting it first — and DynDFS, held to a valid tree rather
// than the canonical one: the sssp, cc, dfs and sim ones on any graph, bc
// and lcc on undirected ones.
func churnMaintainers(g, pattern *graph.Graph) []churnMaintainer {
	s, se, sdd := sssp.NewInc(g.Clone(), 0), sssp.NewIncEngine(g.Clone(), 0), sssp.NewDynDij(g.Clone(), 0)
	c, cn := cc.NewInc(g.Clone()), cc.NewIncNaive(g.Clone())
	d := dfs.NewInc(g.Clone())
	si, sie, sd := sim.NewInc(g.Clone(), pattern), sim.NewIncEngine(g.Clone(), pattern), sim.NewIncDual(g.Clone(), pattern)
	sm := sim.NewIncMatch(g.Clone(), pattern)
	dd := dfs.NewDynDFS(g.Clone())
	ms := []churnMaintainer{
		{"sssp.Inc", s.Apply, func() bool {
			return reflect.DeepEqual(s.Dist(), sssp.Dijkstra(s.Graph(), 0)) && s.Certify() == nil
		}},
		{"sssp.IncEngine", se.Apply, func() bool {
			return reflect.DeepEqual(se.Dist(), sssp.Dijkstra(se.Graph(), 0)) &&
				fixpoint.CheckOrder[int64](&sssp.Instance{G: se.Graph(), Src: 0}, se.State()) == nil
		}},
		{"sssp.DynDij", sdd.Apply, func() bool { return reflect.DeepEqual(sdd.Dist(), sssp.Dijkstra(sdd.Graph(), 0)) }},
		{"cc.Inc", c.Apply, func() bool { return reflect.DeepEqual(c.Labels(), cc.CCfp(c.Graph())) && c.Certify() == nil }},
		{"cc.IncNaive", cn.Apply, func() bool { return reflect.DeepEqual(cn.Labels(), cc.CCfp(cn.Graph())) }},
		{"dfs.Inc", d.Apply, func() bool { return d.Tree().Equal(dfs.Run(d.Graph())) }},
		{"dfs.DynDFS", dd.Apply, func() bool { return dd.Tree().IsValid(dd.Graph()) }},
		{"sim.Inc", si.Apply, func() bool { return simRecomputes(si.Relation(), si.Graph(), pattern) }},
		{"sim.IncEngine", sie.Apply, func() bool {
			return simRecomputes(sie.Relation(), sie.Graph(), pattern) &&
				fixpoint.CheckOrder[bool](sim.NewInstance(sie.Graph(), pattern), sie.State()) == nil
		}},
		{"sim.IncDual", sd.Apply, func() bool {
			return sd.Relation().Equal(sim.DualSim(sd.Graph(), pattern)) &&
				fixpoint.CheckOrder[bool](sim.NewDualInstance(sd.Graph(), pattern), sd.State()) == nil
		}},
		{"sim.IncMatch", sm.Apply, func() bool { return simRecomputes(sm.Relation(), sm.Graph(), pattern) }},
	}
	if !g.Directed() {
		b, l := bc.NewInc(g.Clone()), lcc.NewInc(g.Clone())
		ms = append(ms,
			churnMaintainer{"bc.Inc", b.Apply, func() bool { return b.Result().Equivalent(bc.Run(b.Graph()), b.Graph()) }},
			churnMaintainer{"lcc.Inc", l.Apply, func() bool { return l.Result().Equal(lcc.Run(l.Graph())) }})
	}
	return ms
}

// churnSeed feeds seed's churn streams, un-netted, to every maintainer on
// a directed and an undirected graph, and requires Theorem 1 after every
// chunk: each maintainer computes G ⊕ b for any sequence b, as the host's
// single Net leaves it to (a facade user's batch reaches Apply as it is).
// The engine maintainers that keep their stamps for the next h
// (sssp.IncEngine, cc.Inc, sim.IncEngine and sim.IncDual) must also pass
// fixpoint.CheckOrder — keep the order <_C that h relies on — and
// sssp.Inc its certificate.
func churnSeed(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	pattern := RandomPattern(seed+3, 4, 5, 3)
	for k, directed := range []bool{true, false} {
		mirror := PowerLawGraph(seed+1+int64(k), flatNodes, 4, directed)
		ms := churnMaintainers(mirror, pattern)
		for i := 0; i < flatChunks+2; i++ {
			b := churnStream(rng, mirror, flatChunkLen)
			mirror.Apply(b)
			for _, m := range ms {
				m.apply(b)
				if !m.ok() {
					t.Errorf("seed %d directed=%v chunk %d: %s diverged from recompute", seed, directed, i, m.name)
					return false
				}
			}
		}
	}
	return true
}

// roundTaker is a batch maintainer as its graph's rounds reach it: Repair
// repairs for the graph's newest round (graph.Graph.Take), and Apply
// advances the graph by a batch and repairs.
type roundTaker interface {
	Graph() *graph.Graph
	Apply(graph.Batch) int
	Repair() int
}

// TestRepairTakesOneRound: every batch maintainer — the six served ones,
// the engine forms and the competitors that repair a batch at once, and
// DynDFS, which takes each unit update as a round — repairs for exactly
// the round after the last it took. Two rounds advanced before one Repair
// skip a round, and a second Repair takes one twice; either would repair
// from the wrong updates, so both panic.
func TestRepairTakesOneRound(t *testing.T) {
	pattern := RandomPattern(3, 3, 3, 2)
	g := PowerLawGraph(5, 40, 3, false)
	for _, m := range []struct {
		name string
		new  func(g *graph.Graph) roundTaker
	}{
		{"sssp.Inc", func(g *graph.Graph) roundTaker { return sssp.NewInc(g, 0) }},
		{"sssp.IncEngine", func(g *graph.Graph) roundTaker { return sssp.NewIncEngine(g, 0) }},
		{"sssp.DynDij", func(g *graph.Graph) roundTaker { return sssp.NewDynDij(g, 0) }},
		{"cc.Inc", func(g *graph.Graph) roundTaker { return cc.NewInc(g) }},
		{"cc.IncNaive", func(g *graph.Graph) roundTaker { return cc.NewIncNaive(g) }},
		{"sim.Inc", func(g *graph.Graph) roundTaker { return sim.NewInc(g, pattern) }},
		{"sim.IncEngine", func(g *graph.Graph) roundTaker { return sim.NewIncEngine(g, pattern) }},
		{"sim.IncDual", func(g *graph.Graph) roundTaker { return sim.NewIncDual(g, pattern) }},
		{"sim.IncMatch", func(g *graph.Graph) roundTaker { return sim.NewIncMatch(g, pattern) }},
		{"dfs.Inc", func(g *graph.Graph) roundTaker { return dfs.NewInc(g) }},
		{"dfs.DynDFS", func(g *graph.Graph) roundTaker { return dfs.NewDynDFS(g) }},
		{"lcc.Inc", func(g *graph.Graph) roundTaker { return lcc.NewInc(g) }},
		{"bc.Inc", func(g *graph.Graph) roundTaker { return bc.NewInc(g) }},
	} {
		mustPanic := func(what string, r roundTaker) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %s did not panic", m.name, what)
				}
			}()
			r.Repair()
		}
		r := m.new(g.Clone())
		r.Graph().Advance(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 39, W: 1}})
		r.Graph().Advance(graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 39}})
		mustPanic("a Repair two rounds behind", r)
		r = m.new(g.Clone())
		r.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 39, W: 1}})
		mustPanic("a second Repair of one round", r)
	}
}

// rowBehindTheStore inserts one edge into g's rows that g's Flat does not
// get: into the source of the round's first applied update, from the first
// node with no edge to it. A repair that reads a row then repairs over a
// graph the round never made.
func rowBehindTheStore(g *graph.Graph, applied graph.Batch) {
	a := applied[0].From
	for x := range graph.NodeID(g.NumNodes()) {
		if x != a && !g.HasEdge(x, a) {
			g.InsertEdge(x, a, 1)
			return
		}
	}
}

// TestRepairReadsNoRow holds the rule graph/store.go states, repairs read
// a Flat: for each served class, sim.IncMatch and dfs.DynDFS, a round is
// advanced, one edge is then inserted into the rows behind the store
// (rowBehindTheStore), and the repair must give the answer and the ledger
// of a twin repairing the same round on an untouched clone.
func TestRepairReadsNoRow(t *testing.T) {
	pattern := RandomPattern(3, 4, 5, 3)
	for seed := int64(1); seed <= 4; seed++ {
		round := func(g *graph.Graph) graph.Batch {
			return flatStream(rand.New(rand.NewSource(seed)), g, flatChunkLen).Net(g.Directed())
		}
		for _, c := range Classes {
			build := func(g *Graph) Serveable {
				m, err := c.New(g, ClassParams{Pattern: pattern})
				if err != nil {
					t.Fatal(err)
				}
				m.Recompute()
				return m
			}
			m := build(PowerLawGraph(seed, flatNodes, 4, !c.Undirected))
			twin := build(m.Graph().Clone())
			b := round(m.Graph())
			rowBehindTheStore(m.Graph(), m.Graph().Advance(b))
			twin.Graph().Advance(b)
			got, want := m.Apply(b), twin.Apply(b)
			if got.Stats.Ledger != want.Stats.Ledger {
				t.Errorf("seed %d %s: ledger %+v, the twin's %+v", seed, c.Name, got.Stats.Ledger, want.Stats.Ledger)
			}
			gv, _ := json.Marshal(m.Snapshot())
			wv, _ := json.Marshal(twin.Snapshot())
			if !bytes.Equal(gv, wv) {
				t.Errorf("seed %d %s: view differs from the twin's", seed, c.Name)
			}
		}

		g := PowerLawGraph(seed, flatNodes, 4, true)
		im, imTwin := sim.NewIncMatch(g, pattern), sim.NewIncMatch(g.Clone(), pattern)
		b := round(g)
		rowBehindTheStore(g, g.Advance(b))
		imTwin.Graph().Advance(b)
		if got, want := im.Repair(), imTwin.Repair(); got != want || !im.Relation().Equal(imTwin.Relation()) {
			t.Errorf("seed %d sim.IncMatch: %d raised, the twin %d, or relations differ", seed, got, want)
		}

		for _, directed := range []bool{true, false} {
			g := PowerLawGraph(seed, flatNodes, 4, directed)
			d, dTwin := dfs.NewDynDFS(g), dfs.NewDynDFS(g.Clone())
			b := round(g)
			rowBehindTheStore(g, g.Advance(b))
			dTwin.Graph().Advance(b)
			if got, want := d.Repair(), dTwin.Repair(); got != want || !d.Tree().Equal(dTwin.Tree()) {
				t.Errorf("seed %d directed=%v dfs.DynDFS: %d recomputed, the twin %d, or trees differ", seed, directed, got, want)
			}
		}
	}
}

// churnPinned are testing/quick draws on which sssp.IncEngine, on the
// undirected graph, once ended a chunk with a node 1 below Dijkstra's: h
// stamped the variables it revised afresh, after a dependent it had
// evaluated and left alone, so a later h no longer reached that
// dependent when its one remaining anchor rose.
var churnPinned = []int64{1321383146672136240, 334275395848371562, 7869847668571611342, 2256872818531065710}

// TestChurnDifferential is the differential test of the any-sequence rule:
// the stream of TestFlatDifferentialSixClass plus churn, given to every
// maintainer without netting.
func TestChurnDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		churnSeed(t, seed)
	}
	for _, seed := range churnPinned {
		churnSeed(t, seed)
	}
	if err := quick.Check(func(seed int64) bool { return churnSeed(t, seed) }, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// publishNodes spans several view pages with a ragged last one, so a
// chunk of the stream dirties some pages and leaves others shared.
const publishNodes = 3*256 + 40

// publishSeed drives all six serving adapters over seed's update stream
// and requires, after every chunk, that the view the adapter publishes —
// built from the previous epoch's pages plus what the apply changed —
// encodes exactly like the view of a maintainer freshly built on the
// same graph (Theorem 1, at the publication layer). Midway the adapter
// is recomputed, and its persisted state restored into a rebuilt one:
// after either, no written list describes the change, and the published
// view must still be the recompute.
func publishSeed(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	pattern := RandomPattern(seed+3, 4, 5, 3)
	for _, c := range Classes {
		// The registry's class by its batch run: unrun, then Recompute.
		build := func(g *Graph) Serveable {
			m, err := c.New(g, ClassParams{Pattern: pattern})
			if err != nil {
				t.Fatal(err)
			}
			m.Recompute()
			return m
		}
		m := build(PowerLawGraph(seed+1, publishNodes, 4, c.Name == "sssp" || c.Name == "sim"))
		check := func(when string) bool {
			got, err := json.Marshal(m.Snapshot())
			if err != nil {
				t.Errorf("seed %d %s %s: %v", seed, c.Name, when, err)
				return false
			}
			want, _ := json.Marshal(build(m.Graph().Clone()).Snapshot())
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d %s %s: published view differs from a fresh maintainer's on the same graph", seed, c.Name, when)
				return false
			}
			return true
		}
		if !check("initially") {
			return false
		}
		for i := 0; i < flatChunks; i++ {
			b := flatStream(rng, m.Graph(), flatChunkLen)
			m.Graph().Advance(b) // the test is the graph's one writer
			m.Apply(b)
			if !check(fmt.Sprintf("after chunk %d", i)) {
				return false
			}
			switch i {
			case 1:
				m.Recompute()
				if !check("after Recompute") {
					return false
				}
			case 3:
				var state bytes.Buffer
				if err := m.PersistState(&state); err != nil {
					t.Fatal(err)
				}
				m = build(m.Graph().Clone())
				m.Snapshot() // publish the rebuilt state first: the restore must not hide behind it
				if err := m.RestoreState(&state); err != nil {
					t.Fatal(err)
				}
				if !check("after RestoreState") {
					return false
				}
			}
		}
	}
	return true
}

// TestPublishDifferentialSixClass is the differential test of paged view
// publication, on the stream shape of TestFlatDifferentialSixClass.
func TestPublishDifferentialSixClass(t *testing.T) {
	for seed := range flatGolden {
		publishSeed(t, seed)
	}
	if err := quick.Check(func(seed int64) bool { return publishSeed(t, seed) }, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}
