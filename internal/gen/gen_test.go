package gen

import (
	"math/rand"
	"testing"

	"incgraph/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyi(rng, 100, 300, true)
	if g.NumNodes() != 100 || g.NumEdges() != 300 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(rand.New(rand.NewSource(9)), 50, 120, false)
	b := ErdosRenyi(rand.New(rand.NewSource(9)), 50, 120, false)
	same := true
	a.Edges(func(u, v graph.NodeID, w int64) {
		if b.Weight(u, v) != w {
			same = false
		}
	})
	if !same || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestPowerLawShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := PowerLaw(rng, 2000, 10, false)
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if avg < 6 || avg > 14 {
		t.Fatalf("average degree %.1f, want ≈10", avg)
	}
	// Heavy tail: the max degree should far exceed the average.
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if out, _, _, _ := g.Flat().OutSpans(graph.NodeID(v)); len(out) > maxDeg {
			maxDeg = len(out)
		}
	}
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max degree %d does not look heavy-tailed (avg %.1f)", maxDeg, avg)
	}
}

func TestPowerLawDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := PowerLaw(rng, 500, 8, true)
	if !g.Directed() {
		t.Fatal("not directed")
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 500 {
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
}

func TestGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Grid(rng, 5, 4)
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Directed edges: 2 per internal grid adjacency.
	wantEdges := 2 * (4*4 + 5*3)
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(200, false)
	AssignLabels(rng, g, 5)
	seen := map[graph.Label]bool{}
	for v := 0; v < 200; v++ {
		l := g.Label(graph.NodeID(v))
		if l < 0 || l >= 5 {
			t.Fatalf("label out of range: %d", l)
		}
		seen[l] = true
	}
	if len(seen) != 5 {
		t.Fatalf("only %d labels used", len(seen))
	}
}

func TestPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := Pattern(rng, 4, 6, 5)
	if q.NumNodes() != 4 || q.NumEdges() != 6 {
		t.Fatalf("pattern (%d,%d), want (4,6)", q.NumNodes(), q.NumEdges())
	}
	if err := q.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomUpdatesMix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ErdosRenyi(rng, 200, 1000, true)
	b := RandomUpdates(rng, g, 400, 0.5)
	ins, del := 0, 0
	for _, u := range b {
		if u.Kind == graph.InsertEdge {
			ins++
			if g.HasEdge(u.From, u.To) {
				t.Fatal("insertion of present edge")
			}
		} else {
			del++
			if !g.HasEdge(u.From, u.To) {
				t.Fatal("deletion of absent edge")
			}
		}
	}
	if ins != 200 || del != 200 {
		t.Fatalf("mix ins=%d del=%d", ins, del)
	}
	// All updates must apply cleanly (they were sampled distinct).
	applied := g.Clone().Apply(b)
	if len(applied) != len(b) {
		t.Fatalf("only %d/%d updates applied", len(applied), len(b))
	}
}

func TestUnitHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := ErdosRenyi(rng, 100, 400, false)
	ins := UnitInsertions(rng, g, 50)
	del := UnitDeletions(rng, g, 50)
	if len(ins) != 50 || len(del) != 50 {
		t.Fatalf("got %d insertions, %d deletions", len(ins), len(del))
	}
	for _, u := range ins {
		if u.Kind != graph.InsertEdge {
			t.Fatal("non-insert in UnitInsertions")
		}
	}
	for _, u := range del {
		if u.Kind != graph.DeleteEdge {
			t.Fatal("non-delete in UnitDeletions")
		}
	}
}

func TestHotspotUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := PowerLaw(rng, 2000, 8, false)
	b := HotspotUpdates(rng, g, 80, 0.5, 2)
	if len(b) == 0 {
		t.Fatal("no hotspot updates generated")
	}
	// All updates must apply cleanly.
	if applied := g.Clone().Apply(b); len(applied) != len(b) {
		t.Fatalf("only %d/%d applied", len(applied), len(b))
	}
	// Locality: the touched nodes must be far fewer than for a uniform
	// batch of the same size on this graph.
	touched := map[graph.NodeID]bool{}
	for _, u := range b {
		touched[u.From] = true
		touched[u.To] = true
	}
	if len(touched) > 400 {
		t.Fatalf("hotspot batch touched %d nodes", len(touched))
	}
}

func TestHotspotUpdatesDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := PowerLaw(rng, 800, 8, true)
	b := HotspotUpdates(rng, g, 40, 0.7, 3)
	if applied := g.Clone().Apply(b); len(applied) != len(b) {
		t.Fatalf("only %d/%d applied", len(applied), len(b))
	}
}

func TestTemporalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := ErdosRenyi(rng, 150, 600, true)
	tp := TemporalStream(rng, base, 5, 100, 0.81)
	// Snapshot at time 0 must equal the base graph.
	s0 := tp.Snapshot(0)
	if s0.NumEdges() != base.NumEdges() {
		t.Fatalf("snapshot(0) has %d edges, base %d", s0.NumEdges(), base.NumEdges())
	}
	// Each window has the requested size and roughly the right mix.
	for w := int64(1); w <= 5; w++ {
		b := tp.Window(w-1, w)
		if len(b) != 100 {
			t.Fatalf("window %d has %d events", w, len(b))
		}
		frac := tp.InsertFraction(w-1, w)
		if frac < 0.7 || frac > 0.95 {
			t.Fatalf("window %d insert fraction %.2f", w, frac)
		}
	}
	// Windows must apply cleanly in sequence.
	g := tp.Snapshot(0)
	for w := int64(1); w <= 5; w++ {
		b := tp.Window(w-1, w)
		if applied := g.Apply(b); len(applied) != len(b) {
			t.Fatalf("window %d: only %d/%d applied", w, len(applied), len(b))
		}
	}
}

func TestDatasets(t *testing.T) {
	for _, d := range Datasets {
		g := d.Build(1, 0.02)
		if g.NumNodes() < 16 {
			t.Fatalf("%s: too small", d.Name)
		}
		if g.Directed() != d.Directed {
			t.Fatalf("%s: directedness mismatch", d.Name)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	if _, err := ByName("OKT"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBuildTemporal(t *testing.T) {
	d, _ := ByName("WD")
	tp := d.BuildTemporal(1, 0.02, 3)
	if tp.NumEvents() == 0 {
		t.Fatal("no events")
	}
	if f := tp.InsertFraction(0, 3); f < 0.6 {
		t.Fatalf("insert fraction %.2f too low", f)
	}
}

func TestSynthetic(t *testing.T) {
	g := Synthetic(3, 1000, 8, true)
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
