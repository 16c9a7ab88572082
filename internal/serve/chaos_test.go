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
// maintained answer must equal a from-scratch recompute over exactly
// the batches that were applied — the poisoned batch is dropped by the
// heal, so it is excluded from the oracle too, and nothing else may
// diverge. Set INCGRAPH_CHAOS_SECONDS to stretch the stream into the
// long-form campaign.
func TestChaosServeDifferential(t *testing.T) {
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

	// Each class owns a host, a mirror graph accumulating exactly the
	// batches the host applied, and a rebuild function that answers the
	// class from scratch over a mirror clone.
	type class struct {
		directed bool
		panicAt  int64 // 1-based apply ordinal the injector poisons
		host     *Host
		inj      *faults.Injector
		mirror   *graph.Graph
		rebuild  func(*graph.Graph) Serveable
	}
	classes := map[string]*class{
		"sssp": {directed: false, panicAt: 2,
			rebuild: func(g *graph.Graph) Serveable { return SSSP(sssp.NewInc(g, 0), 0) }},
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
		c.host = NewHost(c.rebuild(g), Options{BeforeApply: c.inj.BeforeApply})
		defer c.host.Close()
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
		return b
	}

	// One waited submission per round per class keeps apply ordinals aligned
	// with the injector's plan: apply k carries round k's batch, so the
	// poisoned round is known exactly and excluded from that mirror.
	for round := int64(1); round <= int64(rounds); round++ {
		b := randomBatch()
		for name, c := range classes {
			if err := submitWait(c.host, b); err != nil {
				t.Fatalf("%s: round %d: %v", name, round, err)
			}
			if round != c.panicAt {
				c.mirror.Apply(b)
			}
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
