package sssp

import (
	"math/rand"
	"reflect"
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
)

// TestParallelMatchesSequential is the differential test of the
// specialized maintainer's parallel resume: for randomized graphs and
// update batches, a parallel Inc's distances must be bit-identical to a
// sequential Inc's after every repair, on directed and undirected graphs.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, workers := range []int{2, 4, 8} {
			rng := rand.New(rand.NewSource(seed))
			g := gen.PowerLaw(rng, 400, 6, seed%2 == 0)
			seq := NewInc(g.Clone(), 0)
			par := NewInc(g.Clone(), 0)
			par.SetWorkers(workers)
			for round := 0; round < 5; round++ {
				b := gen.RandomUpdates(rng, seq.Graph(), 60, 0.5)
				seq.Apply(b)
				par.Apply(b)
				if !reflect.DeepEqual(seq.Dist(), par.Dist()) {
					t.Fatalf("seed %d workers %d round %d: parallel dist != sequential",
						seed, workers, round)
				}
			}
			// And against a fresh batch run on the final graph.
			if want := Dijkstra(par.Graph(), 0); !reflect.DeepEqual(par.Dist(), want) {
				t.Fatalf("seed %d workers %d: parallel dist != fresh Dijkstra", seed, workers)
			}
			par.Close()
		}
	}
}

// TestParallelCompactsBetweenResumes: graph.Flat compacts in place — it
// refills the arrays every span handed out earlier points into — so no
// worker may carry a span across a Stage. They do not: parRelaxFn fetches
// its spans per vertex inside a resume, and Stage (the only caller of
// MaybeCompact) returns before Repair starts the pool. With the view
// compacting on every batch, a span kept from an earlier round would read
// rows being rewritten: wrong distances here, a data race under -race.
func TestParallelCompactsBetweenResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLaw(rng, 600, 8, true)
	seq, par := NewInc(g.Clone(), 0), NewInc(g.Clone(), 0)
	par.SetWorkers(4)
	defer par.Close()
	par.Flat().SetCompactThreshold(0)
	for round := 0; round < 8; round++ {
		b := gen.RandomUpdates(rng, seq.Graph(), 120, 0.5)
		seq.Apply(b)
		par.Apply(b)
		if !reflect.DeepEqual(seq.Dist(), par.Dist()) {
			t.Fatalf("round %d: a maintainer compacting in place on every batch diverged from one that never compacts", round)
		}
	}
	if c := par.Flat().Compactions(); c != 8 {
		t.Fatalf("%d compactions in 8 batches at threshold 0", c)
	}
	if par.ParStats().ParRounds == 0 {
		t.Fatal("no resume round was partitioned across the workers")
	}
}

// TestParallelDeterministic: same graph, same batches, same worker count
// ⇒ identical distances and identical deterministic counters.
func TestParallelDeterministic(t *testing.T) {
	build := func() *Inc {
		rng := rand.New(rand.NewSource(41))
		inc := NewInc(gen.PowerLaw(rng, 300, 8, true), 0)
		inc.SetWorkers(4)
		return inc
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for round := 0; round < 4; round++ {
		a.Apply(gen.RandomUpdates(rngA, a.Graph(), 80, 0.5))
		b.Apply(gen.RandomUpdates(rngB, b.Graph(), 80, 0.5))
	}
	if !reflect.DeepEqual(a.Dist(), b.Dist()) {
		t.Fatal("distances diverged between identical parallel repairs")
	}
	sa, sb := a.ParStats(), b.ParStats()
	sa.BusyNanos, sb.BusyNanos = 0, 0 // wall-clock fields legitimately differ
	sa.WallNanos, sb.WallNanos = 0, 0
	if sa != sb {
		t.Fatalf("parallel stats diverged: %+v vs %+v", sa, sb)
	}
}

// TestParallelStatsPopulated: large repairs on a parallel maintainer must
// actually take the partitioned path and report it.
func TestParallelStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewInc(gen.PowerLaw(rng, 3000, 8, true), 0)
	inc.SetWorkers(4)
	defer inc.Close()
	// Deleting and reinserting many edges forces wide repair waves.
	for round := 0; round < 3; round++ {
		inc.Apply(gen.RandomUpdates(rng, inc.Graph(), 600, 0.5))
	}
	ps := inc.ParStats()
	if ps.ParRounds == 0 {
		t.Fatalf("no partitioned rounds on wide repairs: %+v", ps)
	}
	if ps.Workers != 4 || ps.Items == 0 || ps.Candidates == 0 {
		t.Fatalf("unpopulated parallel stats: %+v", ps)
	}
	if imb := ps.MaxImbalance; imb < 1 {
		t.Fatalf("MaxImbalance %v < 1", imb)
	}
	if u := ps.Utilization(); u < 0 || u > 1 {
		t.Fatalf("Utilization %v outside [0,1]", u)
	}
	// Sequential maintainers stay zero-valued.
	if s := NewInc(gen.PowerLaw(rand.New(rand.NewSource(1)), 50, 4, true), 0).ParStats(); s != (fixpoint.ParStats{}) {
		t.Fatalf("sequential maintainer has parallel stats: %+v", s)
	}
}
