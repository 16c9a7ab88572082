package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/serve/faults"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// TestChaosServeDifferential is the single-process half of the chaos
// campaign: all six query classes ingest the same seeded update streams
// while a deterministic injector poisons one apply per class mid-stream
// (panic → isolate → heal by batch recompute). The invariant is the
// paper's: after the stream drains, every class's incrementally
// maintained answer must equal a from-scratch recompute over every batch
// submitted, so no round is lost. The panic strikes either before the
// maintainer's graph takes the batch (the heal must apply it) or after the
// graph took all of it, as a bug inside Apply's repair does (re-applying
// it must change nothing); every round carries a delete-then-reinsert at a
// new weight, the netted pair a re-apply could undo. Set
// INCGRAPH_CHAOS_SECONDS to stretch the stream into the long-form campaign.
func TestChaosServeDifferential(t *testing.T) {
	t.Run("before-graph", func(t *testing.T) { testChaosServe(t, false) })
	t.Run("after-graph", func(t *testing.T) { testChaosServe(t, true) })
}

// panicMidRepair wraps hook, a BeforeApply, so that its panic strikes
// where a bug in m's repair would: after m's graph took the whole batch.
func panicMidRepair(m Serveable, hook func(string, graph.Batch)) func(string, graph.Batch) {
	return func(algo string, b graph.Batch) {
		defer func() {
			if p := recover(); p != nil {
				m.Graph().Apply(b) // in the apply loop, the graph's one writer
				panic(p)
			}
		}()
		hook(algo, b)
	}
}

func testChaosServe(t *testing.T, afterGraph bool) {
	const n = 120
	seedGraph := func(seed int64, directed bool) *graph.Graph {
		g := graph.New(n, directed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3*n; i++ {
			g.InsertEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), int64(1+rng.Intn(8)))
		}
		return g
	}
	// Sim needs labels on the data graph and a pattern.
	labeled := func(g *graph.Graph) *graph.Graph {
		for v := 0; v < n; v++ {
			g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
		}
		return g
	}
	pattern := func() *graph.Graph {
		q := graph.New(2, true)
		q.SetLabel(0, 'a')
		q.SetLabel(1, 'b')
		q.InsertEdge(0, 1, 1)
		return q
	}

	// Each class owns a service of one (the classes differ in
	// directedness), a mirror graph accumulating every submitted batch,
	// and a rebuild function that answers the class from scratch over a
	// mirror clone.
	type class struct {
		directed bool
		panicAt  int64 // 1-based apply ordinal the injector poisons
		svc      *Service
		host     *Host
		inj      *faults.Injector
		mirror   *graph.Graph
		rebuild  func(*graph.Graph) Serveable
	}
	classes := map[string]*class{
		"sssp": {directed: false, panicAt: 2,
			rebuild: func(g *graph.Graph) Serveable { return SSSP(sssp.NewInc(g, 0)) }},
		"cc": {directed: false, panicAt: 3,
			rebuild: func(g *graph.Graph) Serveable { return CC(cc.NewInc(g)) }},
		"sim": {directed: true, panicAt: 4,
			rebuild: func(g *graph.Graph) Serveable { return Sim(sim.NewInc(g, pattern())) }},
		"dfs": {directed: true, panicAt: 5,
			rebuild: func(g *graph.Graph) Serveable { return DFS(dfs.NewInc(g)) }},
		"lcc": {directed: false, panicAt: 6,
			rebuild: func(g *graph.Graph) Serveable { return LCC(lcc.NewInc(g)) }},
		"bc": {directed: false, panicAt: 7,
			rebuild: func(g *graph.Graph) Serveable { return BC(bc.NewInc(g)) }},
	}
	for name, c := range classes {
		seed := int64(len(name)) // distinct but deterministic per geometry use below
		g := seedGraph(seed, c.directed)
		c.mirror = seedGraph(seed, c.directed)
		if name == "sim" {
			labeled(g)
			labeled(c.mirror)
		}
		c.inj = faults.New()
		c.inj.PanicOn(name, c.panicAt)
		m, hook := c.rebuild(g), c.inj.BeforeApply
		if afterGraph {
			hook = panicMidRepair(m, hook)
		}
		c.svc, c.host = soloHost(t, m, Options{BeforeApply: hook})
	}

	rounds, longEnd := 24, time.Time{}
	if s := os.Getenv("INCGRAPH_CHAOS_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad INCGRAPH_CHAOS_SECONDS %q", s)
		}
		rounds, longEnd = 1<<30, time.Now().Add(time.Duration(secs)*time.Second)
	}

	rng := rand.New(rand.NewSource(31))
	randomBatch := func() graph.Batch {
		b := make(graph.Batch, 1+rng.Intn(6))
		for i := range b {
			u := graph.Update{
				From: graph.NodeID(rng.Intn(n)),
				To:   graph.NodeID(rng.Intn(n)),
				W:    int64(1 + rng.Intn(8)),
				Kind: graph.InsertEdge,
			}
			if rng.Intn(3) == 0 {
				u.Kind = graph.DeleteEdge
			}
			b[i] = u
		}
		// Reweight an edge sssp's mirror holds (the other mirrors may or
		// may not): netted, it stays a delete and an insert.
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if es := classes["sssp"].mirror.Out(u); len(es) > 0 {
			v = es[rng.Intn(len(es))].To
		}
		return append(b,
			graph.Update{Kind: graph.DeleteEdge, From: u, To: v},
			graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: int64(9 + rng.Intn(8))})
	}

	// One waited submission per round per class keeps apply ordinals aligned
	// with the injector's plan: apply k carries round k's batch, and every
	// round, the poisoned one too, reaches every mirror.
	for round := int64(1); round <= int64(rounds); round++ {
		b := randomBatch()
		for name, c := range classes {
			if err := submitWait(c.svc, b); err != nil {
				t.Fatalf("%s: round %d: %v", name, round, err)
			}
			c.mirror.Apply(b)
		}
		if !longEnd.IsZero() && time.Now().After(longEnd) {
			break
		}
	}

	for name, c := range classes {
		st := c.host.Stats()
		if st.Panics != 1 || st.Heals != 1 {
			t.Errorf("%s: panics=%d heals=%d, want 1/1", name, st.Panics, st.Heals)
		}
		if st.Degraded {
			t.Errorf("%s: still degraded after heal", name)
		}
		c.host.WithState(func(m Serveable) error {
			g := m.Graph()
			if got, want := g.NumEdges(), c.mirror.NumEdges(); got != want {
				t.Errorf("%s: the maintainer's graph holds %d edges, the mirror %d", name, got, want)
			}
			g.Edges(func(u, v graph.NodeID, w int64) {
				if !c.mirror.HasEdge(u, v) || c.mirror.Weight(u, v) != w {
					t.Errorf("%s: the maintainer's graph holds %d–%d at weight %d, the mirror %v at %d", name, u, v, w, c.mirror.HasEdge(u, v), c.mirror.Weight(u, v))
				}
			})
			return nil
		})
		got, err := json.Marshal(c.host.View().Data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.rebuild(c.mirror.Clone()).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: incremental answer diverged from recompute\n got %s\nwant %s", name, got, want)
		}
	}
}
