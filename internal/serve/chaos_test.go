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
	"incgraph/internal/trace"
	"incgraph/internal/wal"
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
// In store-stage the graph's own stage of the round panics, which leaves
// its Flat view half staged: the loop lays the view out again and the
// class repairs as usual, neither panicking nor healing. Every round
// carries a delete-then-reinsert at a new weight, the netted pair a
// re-apply could undo. Set INCGRAPH_CHAOS_SECONDS to stretch the stream
// into the long-form campaign.
func TestChaosServeDifferential(t *testing.T) {
	t.Run("before-graph", func(t *testing.T) { testChaosServe(t, chaosBeforeGraph) })
	t.Run("after-graph", func(t *testing.T) { testChaosServe(t, chaosAfterGraph) })
	t.Run("store-stage", func(t *testing.T) { testChaosServe(t, chaosStoreStage) })
}

// A chaosMode is where testChaosServe's one fault per class strikes.
type chaosMode int

const (
	chaosBeforeGraph chaosMode = iota // a panic before the class takes its round
	chaosAfterGraph                   // a panic after the class's repair took its round
	chaosStoreStage                   // a panic in the graph's stage of the round
)

// tearStage stages the edge of b's last update into g's Flat view the
// other way round from the rows: the view is then out of step with the
// graph on an edge b changes, and the stage of b panics in Flat.Stage half
// way through the batch. It writes the graph's view, so it runs where the
// graph's one writer does: in a WithState job of the apply loop.
func tearStage(g *graph.Graph, b graph.Batch) {
	u := b[len(b)-1]
	flip := graph.Update{Kind: graph.InsertEdge, From: u.From, To: u.To, W: u.W}
	if g.HasEdge(u.From, u.To) {
		flip.Kind = graph.DeleteEdge
	}
	g.Flat().Stage(g, graph.Batch{flip})
}

// tearableBatch draws eight updates on opsBase's nodes and then moves an
// edge mirror holds to a new weight, last, so that tearStage of the batch
// tears its stage.
func tearableBatch(rng *rand.Rand, mirror *graph.Graph) graph.Batch {
	var b graph.Batch
	for k := 0; k < 8; k++ {
		u, v := graph.NodeID(rng.Intn(opsNodes)), graph.NodeID(rng.Intn(opsNodes))
		b = append(b, graph.Update{Kind: graph.UpdateKind(rng.Intn(2)), From: u, To: v, W: int64(1 + rng.Intn(8))})
	}
	var u graph.NodeID
	for len(mirror.Out(u)) == 0 {
		u = graph.NodeID(rng.Intn(opsNodes))
	}
	v := mirror.Out(u)[0].To
	return append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: v},
		graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: 9})
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

// TestChaosStoreStage: six classes share one graph, and the stage of a
// round into its Flat view panics half way (tearStage). The panic is the
// store's: the service counts it once, lays the view out again from the
// rows, and every class repairs the round over it, none panicking or
// healing. After that round and three more every view equals the batch
// answer on a mirror, and the view's rows equal the graph's.
func TestChaosStoreStage(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	if _, _, err := Start(svc, "", opsAlgos(), opsBuild, func() (*graph.Graph, error) { return opsBase(), nil },
		Options{}, false, false); err != nil {
		t.Fatal(err)
	}
	mirror, rng := opsBase(), rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		b := tearableBatch(rng, mirror)
		if round == 1 {
			svc.Hosts()[0].WithState(func(m Serveable) error { tearStage(m.Graph(), b); return nil })
		}
		if err := submitWait(svc, b); err != nil {
			t.Fatal(err)
		}
		mirror.Apply(b)
	}
	if n := svc.stagePanics.Value(); n != 1 {
		t.Errorf("the service counted %v stage panics, want 1", n)
	}
	for _, h := range svc.Hosts() {
		if st := h.Stats(); st.Panics != 0 || st.Heals != 0 || st.Degraded {
			t.Errorf("%s: panics=%d heals=%d degraded=%v, want 0/0/false", h.Algo(), st.Panics, st.Heals, st.Degraded)
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

// TestChaosReplayStage: a recovery's replay stages each record as the apply
// loop stages a batch, so a stage that panics there is the store's too.
// Six classes share one graph, whose Flat is torn (tearStage) before the
// WAL tail is replayed into them: the replay counts one stage panic, lays
// the Flat out again and goes on, and every class ends at the batch answer
// on a mirror, the Flat's rows at the graph's.
func TestChaosReplayStage(t *testing.T) {
	dir := t.TempDir()
	svc := NewService()
	if _, _, err := Start(svc, dir, opsAlgos(), opsBuild, func() (*graph.Graph, error) { return opsBase(), nil },
		Options{}, false, false); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	const records = 4
	mirror, rng := opsBase(), rand.New(rand.NewSource(9))
	var first graph.Batch
	for i := 0; i < records; i++ {
		b := tearableBatch(rng, mirror)
		if i == 0 {
			first = b
		}
		if err := d.Ingest(nil, "", b, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		mirror.Apply(b)
	}
	svc.Close()
	d.Close()

	rec, err := loadRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := opsBase()
	targets := map[string]Serveable{}
	for _, algo := range opsAlgos() {
		targets[algo] = opsBatchRun(algo, g)
	}
	tearStage(g, first)
	if n, err := rec.Replay(targets, trace.NewRecorder(64)); n != records || err != nil {
		t.Fatalf("replayed %d records (%v), want %d", n, err, records)
	}
	if rec.StagePanics != 1 {
		t.Errorf("the replay counted %d stage panics, want 1", rec.StagePanics)
	}
	for algo, m := range targets {
		if !snapshotEqual(m.Snapshot(), opsBatchRun(algo, mirror.Clone()).Snapshot()) {
			t.Errorf("%s: the replayed view differs from the batch answer on the mirror", algo)
		}
	}
	if g.Round() != records || g.NumEdges() != mirror.NumEdges() {
		t.Errorf("the graph is at round %d with %d edges, want %d and the mirror's %d", g.Round(), g.NumEdges(), records, mirror.NumEdges())
	}
	if err := checkFlatRows(g); err != nil {
		t.Error(err)
	}
}

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
		var opt Options
		if mode != chaosStoreStage {
			c.inj = faults.New()
			c.inj.PanicOn(name, c.panicAt)
			opt.BeforeApply = c.inj.BeforeApply
		}
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
			if mode == chaosStoreStage && round == c.panicAt {
				c.host.WithState(func(m Serveable) error { tearStage(m.Graph(), b); return nil })
			}
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
		st, faults, stagePanics := c.host.Stats(), uint64(1), 0.0
		if mode == chaosStoreStage {
			faults, stagePanics = 0, 1
		}
		if st.Panics != faults || st.Heals != faults || c.svc.stagePanics.Value() != stagePanics {
			t.Errorf("%s: panics=%d heals=%d stage panics=%v, want %d/%d/%v", name, st.Panics, st.Heals, c.svc.stagePanics.Value(), faults, faults, stagePanics)
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
