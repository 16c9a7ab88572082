package sim

import (
	"math/rand"
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func randomInputs(seed int64, n, m int) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	g := gen.ErdosRenyi(rng, n, m, true)
	gen.AssignLabels(rng, g, 3)
	q := gen.Pattern(rng, 4, 6, 3)
	return g, q
}

func TestSimfpMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g, q := randomInputs(seed, 40, 150)
		if !Simfp(g, q).Equal(Naive(g, q)) {
			t.Fatalf("seed %d: Simfp != Naive", seed)
		}
	}
}

func TestEngineInstanceMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, q := randomInputs(seed, 30, 100)
		inst := NewInstance(g, q)
		eng := fixpoint.New[bool](inst, fixpoint.FIFOOrder)
		eng.Run()
		want := Naive(g, q)
		got := Relation{NQ: q.NumNodes(), Bits: eng.State().Val}
		if !got.Equal(want) {
			t.Fatalf("seed %d: engine relation != Naive", seed)
		}
	}
}

func TestSimKnownSmall(t *testing.T) {
	// Data: 0(a) -> 1(b); pattern: A(a) -> B(b). 0 matches A, 1 matches B.
	g := graph.New(3, true)
	g.SetLabel(0, 'a')
	g.SetLabel(1, 'b')
	g.SetLabel(2, 'a') // a-node with no b-successor: must not match A
	g.InsertEdge(0, 1, 1)
	q := graph.New(2, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'b')
	q.InsertEdge(0, 1, 1)
	r := Simfp(g, q)
	if !r.Match(0, 0) || !r.Match(1, 1) || r.Match(2, 0) || r.Match(0, 1) {
		t.Fatalf("relation wrong: %+v", r.Bits)
	}
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
}

type maintainer interface {
	Apply(graph.Batch) int
	Relation() Relation
	Graph() *graph.Graph
}

func checkMaintainer(t *testing.T, name string, mk func(g, q *graph.Graph) maintainer) {
	t.Helper()
	for seed := int64(0); seed < 10; seed++ {
		g, q := randomInputs(seed, 50, 200)
		m := mk(g, q)
		rng := rand.New(rand.NewSource(seed + 100))
		for round := 0; round < 6; round++ {
			b := gen.RandomUpdates(rng, m.Graph(), 16, 0.5)
			m.Apply(b)
			// Simfp shares IncSim's and IncMatch's counter core; Naive
			// shares nothing with them.
			if got := m.Relation(); !got.Equal(Simfp(m.Graph(), q)) || !got.Equal(Naive(m.Graph(), q)) {
				t.Fatalf("%s seed %d round %d: relation mismatch", name, seed, round)
			}
		}
	}
}

func TestIncAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSim", func(g, q *graph.Graph) maintainer { return NewInc(g, q) })
}

func TestIncEngineAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSimEngine", func(g, q *graph.Graph) maintainer { return NewIncEngine(g, q) })
}

// The tuned counter-based IncSim and the generic-engine IncSim must agree
// pair for pair across rounds.
func TestTunedMatchesEngine(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, q := randomInputs(seed, 40, 160)
		tuned := NewInc(g.Clone(), q)
		eng := NewIncEngine(g.Clone(), q)
		rng := rand.New(rand.NewSource(seed + 50))
		for round := 0; round < 6; round++ {
			b := gen.RandomUpdates(rng, tuned.Graph(), 12, 0.5)
			tuned.Apply(b)
			eng.Apply(b)
			if !tuned.Relation().Equal(eng.Relation()) {
				t.Fatalf("seed %d round %d: tuned != engine", seed, round)
			}
		}
	}
}

// unitFed is IncSim_n: Inc fed each batch one unit update at a time.
type unitFed struct{ *Inc }

func (u unitFed) Apply(b graph.Batch) int {
	n := 0
	for k := range b {
		n += u.Inc.Apply(b[k : k+1])
	}
	return n
}

func TestIncUnitAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncSim_n", func(g, q *graph.Graph) maintainer { return unitFed{NewInc(g, q)} })
}

func TestIncMatchAgainstBatch(t *testing.T) {
	checkMaintainer(t, "IncMatch", func(g, q *graph.Graph) maintainer { return NewIncMatch(g, q) })
}

// cyclicFixtures builds the hard case for incremental simulation: a cyclic
// pattern (a ⇄ a) and a data chain that an insertion closes into a cycle,
// turning on matches arbitrarily far from the inserted edge.
func cyclicFixtures(chain int) (*graph.Graph, *graph.Graph) {
	g := graph.New(chain, true)
	for v := 0; v < chain; v++ {
		g.SetLabel(graph.NodeID(v), 'a')
	}
	for v := 0; v+1 < chain; v++ {
		g.InsertEdge(graph.NodeID(v), graph.NodeID(v+1), 1)
	}
	q := graph.New(2, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'a')
	q.InsertEdge(0, 1, 1)
	q.InsertEdge(1, 0, 1)
	return g, q
}

func TestIncCyclicPatternInsertion(t *testing.T) {
	for _, mkName := range []string{"IncSim", "IncMatch"} {
		g, q := cyclicFixtures(30)
		var m maintainer
		if mkName == "IncSim" {
			m = NewInc(g, q)
		} else {
			m = NewIncMatch(g, q)
		}
		if m.Relation().Count() != 0 {
			t.Fatalf("%s: chain should match nothing before closing", mkName)
		}
		// Close the chain into a cycle: now every node matches both
		// pattern nodes.
		m.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 29, To: 0, W: 1}})
		want := Simfp(m.Graph(), q)
		if want.Count() != 60 {
			t.Fatalf("fixture wrong: batch count %d", want.Count())
		}
		if !m.Relation().Equal(want) {
			t.Fatalf("%s: cyclic insertion not repaired", mkName)
		}
		// And breaking the cycle turns everything off again.
		m.Apply(graph.Batch{{Kind: graph.DeleteEdge, From: 10, To: 11}})
		if m.Relation().Count() != 0 {
			t.Fatalf("%s: cyclic deletion not propagated", mkName)
		}
	}
}

func TestIncBoundedOnLocalUpdate(t *testing.T) {
	// A single random update on a large graph must inspect far less than
	// the batch run.
	g, q := randomInputs(7, 4000, 16000)
	m := NewIncEngine(g, q)
	batch := m.Stats().Inspected()
	rng := rand.New(rand.NewSource(7))
	before := m.Stats().Inspected()
	m.Apply(gen.RandomUpdates(rng, g, 2, 0.5))
	delta := m.Stats().Inspected() - before
	if delta*10 > batch {
		t.Fatalf("incremental inspected %d vs batch %d", delta, batch)
	}
}

func TestRelationHelpers(t *testing.T) {
	r := NewRelation(2, 3)
	if r.Count() != 0 || r.Match(1, 2) {
		t.Fatal("fresh relation not empty")
	}
	r.Bits[1*3+2] = true
	if !r.Match(1, 2) || r.Count() != 1 {
		t.Fatal("Match/Count wrong")
	}
	o := NewRelation(2, 3)
	if r.Equal(o) {
		t.Fatal("Equal wrong")
	}
	if r.Equal(NewRelation(3, 2)) {
		t.Fatal("shape mismatch not detected")
	}
}
