package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
)

// TestChaosServeDifferential is the single-process half of the chaos
// campaign: all six query classes ingest the same seeded update streams
// while a deterministic injector poisons one apply per class mid-stream
// (panic → isolate → heal by batch recompute). The invariant is the
// paper's: after the stream drains, every class's incrementally
// maintained answer must equal a from-scratch recompute over every batch
// submitted, so no round is lost. The panic strikes either before the
// maintainer takes the batch's round of its graph (the heal must advance
// the graph), after the graph took the round, as a bug inside Apply's
// repair does (the heal must not advance it again), or inside the graph's
// own stage of the round, which leaves its Flat view half staged (the heal
// must lay it out again); every round carries a delete-then-reinsert at a
// new weight, the netted pair a re-apply could undo. Set
// INCGRAPH_CHAOS_SECONDS to stretch the stream into the long-form campaign.
func TestChaosServeDifferential(t *testing.T) {
	t.Run("before-graph", func(t *testing.T) { testChaosServe(t, panicBefore) })
	t.Run("after-graph", func(t *testing.T) { testChaosServe(t, panicMidRepair) })
	t.Run("store-stage", func(t *testing.T) { testChaosServe(t, panicInStage) })
}

// A panic mode wraps hook, a BeforeApply that panics on the apply it is
// armed for, into the BeforeApply of the class host() serves.
type panicMode func(host func() *Host, hook func(string, graph.Batch)) func(string, graph.Batch)

// panicBefore is hook itself: the panic strikes before the class takes the
// batch's round of its graph.
func panicBefore(_ func() *Host, hook func(string, graph.Batch)) func(string, graph.Batch) {
	return hook
}

// panicMidRepair makes hook's panic strike where a bug in the class's
// repair would: after its graph took the batch's round — advanced here,
// unless a class applied before this one already had.
func panicMidRepair(host func() *Host, hook func(string, graph.Batch)) func(string, graph.Batch) {
	return func(algo string, b graph.Batch) {
		defer func() {
			if p := recover(); p != nil {
				seen := host().round
				host().m.Graph().Advance(&seen, b) // in the apply loop, the graph's one writer
				panic(p)
			}
		}()
		hook(algo, b)
	}
}

// panicInStage turns hook's panic into one inside the graph's own stage of
// the round: it stages the edge of b's last update into the graph's Flat
// view the other way round from the rows, so the view is out of step with
// the graph on an edge the round changes, and the class's Apply, the first
// to take the round, panics in Flat.Stage half way through the batch.
func panicInStage(host func() *Host, hook func(string, graph.Batch)) func(string, graph.Batch) {
	return func(algo string, b graph.Batch) {
		defer func() {
			if recover() != nil {
				g, u := host().m.Graph(), b[len(b)-1]
				flip := graph.Update{Kind: graph.InsertEdge, From: u.From, To: u.To, W: u.W}
				if g.HasEdge(u.From, u.To) {
					flip.Kind = graph.DeleteEdge
				}
				g.Flat().Stage(g, graph.Batch{flip})
			}
		}()
		hook(algo, b)
	}
}

// checkFlatRows reports the first row of g's Flat view that differs from
// g's own, if g has a view.
func checkFlatRows(g *graph.Graph) error {
	f := g.Staged()
	for u := graph.NodeID(0); f != nil && int(u) < g.NumNodes(); u++ {
		sorted := func(es []graph.Edge) []graph.NodeID {
			var ids []graph.NodeID
			for _, e := range es {
				ids = append(ids, e.To)
			}
			slices.Sort(ids)
			return ids
		}
		ts, _, _, _ := f.OutSpans(u)
		in, _, _, _ := f.InSpans(u)
		if !slices.Equal(ts, sorted(g.Out(u))) || !slices.Equal(in, sorted(g.In(u))) {
			return fmt.Errorf("flat rows of %d are %v and %v, the graph's %v and %v", u, ts, in, g.Out(u), g.In(u))
		}
	}
	return nil
}

// TestChaosStoreStage: six classes share one graph, and a panic strikes
// inside its own stage of a round, taken by bc, the first class by name.
// bc heals; every class after it takes the round's applied list and
// repairs over the Flat view laid out again from the rows, never over the
// half-staged one. After that round and three more every view equals the
// batch answer on a mirror, no other class panicked, and the view's rows
// equal the graph's.
func TestChaosStoreStage(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	inj := faults.New()
	inj.PanicOn("bc", 2)
	hook := func(algo string, b graph.Batch) {
		panicInStage(func() *Host { return svc.Get(algo) }, inj.BeforeApply)(algo, b)
	}
	if _, _, err := Start(svc, "", opsAlgos(), opsBuild, func() (*graph.Graph, error) { return opsBase(), nil },
		Options{BeforeApply: hook}, false, false); err != nil {
		t.Fatal(err)
	}
	mirror, rng := opsBase(), rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		var b graph.Batch
		for k := 0; k < 8; k++ {
			u, v := graph.NodeID(rng.Intn(opsNodes)), graph.NodeID(rng.Intn(opsNodes))
			b = append(b, graph.Update{Kind: graph.UpdateKind(rng.Intn(2)), From: u, To: v, W: int64(1 + rng.Intn(8))})
		}
		// Last, an edge the mirror holds moves to a new weight.
		var u, v graph.NodeID
		for len(mirror.Out(u)) == 0 {
			u = graph.NodeID(rng.Intn(opsNodes))
		}
		v = mirror.Out(u)[0].To
		b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: v},
			graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: 9})
		if err := submitWait(svc, b); err != nil {
			t.Fatal(err)
		}
		mirror.Apply(b)
	}
	for _, h := range svc.Hosts() {
		want := uint64(0)
		if h.Algo() == "bc" {
			want = 1
		}
		if st := h.Stats(); st.Panics != want || st.Heals != want || st.Degraded {
			t.Errorf("%s: panics=%d heals=%d degraded=%v, want %d/%d/false", h.Algo(), st.Panics, st.Heals, st.Degraded, want, want)
		}
		m := opsBatchRun(h.Algo(), mirror.Clone())
		if !snapshotEqual(h.View().Data, m.Snapshot()) {
			t.Errorf("%s: the view differs from the batch answer on the mirror", h.Algo())
		}
	}
	svc.Hosts()[0].WithState(func(m Serveable) error {
		if m.Graph().NumEdges() != mirror.NumEdges() {
			t.Errorf("the graph holds %d edges, the mirror %d", m.Graph().NumEdges(), mirror.NumEdges())
		}
		if err := checkFlatRows(m.Graph()); err != nil {
			t.Error(err)
		}
		return nil
	})
}

func testChaosServe(t *testing.T, mode panicMode) {
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
	// accumulating every submitted batch, and a panic on its apply
	// ordinal i+2; rebuild answers a class by its batch run over a mirror
	// clone.
	type class struct {
		directed bool
		panicAt  int64 // 1-based apply ordinal the injector poisons
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
		hook := mode(func() *Host { return c.host }, c.inj.BeforeApply)
		c.svc, c.host = soloHost(t, rebuild(name, g), Options{BeforeApply: hook})
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
			if err := checkFlatRows(g); err != nil {
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
