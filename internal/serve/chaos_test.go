package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
)

// TestChaosServeDifferential is the single-process half of the chaos
// campaign: all six query classes ingest the same seeded update streams
// while a fault strikes one round per class mid-stream. The invariant is
// the paper's: after the stream drains, every class's incrementally
// maintained answer must equal a from-scratch recompute over every batch
// submitted, so no round is lost and none is taken twice. The loop has
// advanced the class's graph by the round before any fault strikes. In
// before-graph the class panics before it takes that round of its graph,
// so its own record of the rounds it took is one behind (the heal must
// bring it up to the graph's without advancing the graph); in after-graph
// it panics after its repair took the round, as a bug late in its repair
// does (the heal must not take the round again). Either way it is
// panic → isolate → heal by batch recompute over the graph as it stands.
// The graph's own advance needs no fault of its own: Apply never panics.
// Every round
// carries a delete-then-reinsert at a new weight, the netted pair a
// re-apply could undo. Set INCGRAPH_CHAOS_SECONDS to stretch the stream
// into the long-form campaign.
func TestChaosServeDifferential(t *testing.T) {
	t.Run("before-graph", func(t *testing.T) { testChaosServe(t, chaosBeforeGraph) })
	t.Run("after-graph", func(t *testing.T) { testChaosServe(t, chaosAfterGraph) })
}

// A chaosMode is where testChaosServe's one fault per class strikes.
type chaosMode int

const (
	chaosBeforeGraph chaosMode = iota // a panic before the class takes its round
	chaosAfterGraph                   // a panic after the class's repair took its round
)

func testChaosServe(t *testing.T, mode chaosMode) {
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

	// Each class of the registry owns a service of one (sim and dfs on a
	// directed graph, the others on an undirected one), a mirror graph
	// accumulating every submitted batch, and a fault on its round i+2;
	// rebuild answers a class by its batch run over a mirror clone.
	type class struct {
		directed bool
		panicAt  int64 // 1-based round the fault strikes
		svc      *Service
		host     *Host
		inj      *faults.Injector
		mirror   *graph.Graph
	}
	classes := map[string]*class{}
	for i, c := range Classes {
		classes[c.Name] = &class{directed: c.Name == "sim" || c.Name == "dfs", panicAt: int64(i + 2)}
	}
	rebuild := func(name string, g *graph.Graph) Serveable {
		c, _ := LookupClass(name)
		m, err := c.New(g, Params{Pattern: pattern()})
		if err != nil {
			t.Fatal(err)
		}
		m.Recompute()
		return m
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
		opt := Options{BeforeApply: c.inj.BeforeApply}
		if mode == chaosAfterGraph {
			// The class's repair takes the round before the injected panic
			// goes on: the hook runs in the apply loop, the maintainer's
			// one caller.
			opt.BeforeApply = func(algo string, b graph.Batch) {
				defer func() {
					if p := recover(); p != nil {
						c.host.m.Apply(b)
						panic(p)
					}
				}()
				c.inj.BeforeApply(algo, b)
			}
		}
		c.svc, c.host = soloHost(t, rebuild(name, g), opt)
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
		if ts, _, _, _ := classes["sssp"].mirror.Flat().OutSpans(u); len(ts) > 0 {
			v = ts[rng.Intn(len(ts))]
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
		if st := c.host.Stats(); st.Panics != 1 || st.Heals != 1 {
			t.Errorf("%s: panics=%d heals=%d, want 1/1", name, st.Panics, st.Heals)
		}
		if c.host.Stats().Degraded {
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
			if err := g.CheckConsistent(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			return nil
		})
		got, err := json.Marshal(c.host.View().Data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rebuild(name, c.mirror.Clone()).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: incremental answer diverged from recompute\n got %s\nwant %s", name, got, want)
		}
	}
}
