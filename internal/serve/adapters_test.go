package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
	"incgraph/internal/wal"
)

// TestBCRestoreOlderCheckpoint: a v2 checkpoint written before bc's edge
// partition became per-node arrays holds the flags and a map keyed by edge.
// Its bc state loads empty, so Start rebuilds the class by a batch run —
// to the structure of the cut's graph — and the maintainer repairs on from
// there.
func TestBCRestoreOlderCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi(rng, 80, 90, false)
	want := bc.Run(g)

	// The gob struct as the older adapter encoded it.
	older := struct {
		Articulation []bool
		EdgeComp     map[[2]graph.NodeID]int32
	}{Articulation: want.Articulation, EdgeComp: map[[2]graph.NodeID]int32{}}
	g.Edges(func(u, v graph.NodeID, _ int64) {
		older.EdgeComp[[2]graph.NodeID{min(u, v), max(u, v)}] = want.EdgeComp(u, v)
	})
	var blob, cut bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(older); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&cut); err != nil {
		t.Fatal(err)
	}
	// A v2 file is a v3 one under v2's magic, with its CRC32C made again.
	dir := t.TempDir()
	ck := &wal.Checkpoint{Epoch: 5, Batches: 1, ReplayFrom: 1, Graph: cut.Bytes(),
		Algos: []wal.AlgoState{{Name: "bc", State: blob.Bytes()}}}
	l, err := wal.Open(dir, wal.Options{})
	if err == nil {
		err = l.Close()
	}
	path, werr := wal.WriteCheckpoint(dir, ck)
	file, rerr := os.ReadFile(path)
	if err != nil || werr != nil || rerr != nil {
		t.Fatal(err, werr, rerr)
	}
	file = append([]byte("IGK2"), file[4:len(file)-4]...)
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(file, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := LoadRecovery(dir); err != nil || len(rec.Algos["bc"].State) != 0 {
		t.Fatalf("loaded %v (%v), want bc without state", rec, err)
	}

	targets, rec := startClosed(t, dir, nil, buildFrom(map[string]func(*graph.Graph) Serveable{
		"bc": func(g *graph.Graph) Serveable { return BC(bc.NewInc(g)) }}), "bc")
	if rec.CheckpointEpoch != 5 {
		t.Fatalf("started from epoch %d, want the checkpoint's 5", rec.CheckpointEpoch)
	}
	s := targets["bc"].(*adapter[*bc.Inc, BCView])
	for round := 0; round <= 5; round++ {
		if round > 0 {
			applyAlone(s, gen.RandomUpdates(rng, s.Graph(), 12, 0.5))
		}
		g := s.m.Graph()
		if !s.m.Result().Equivalent(bc.Run(g), g) {
			t.Fatalf("round %d: structure differs from Run", round)
		}
		if !snapshotEqual(s.Snapshot(), BC(bc.NewInc(g.Clone())).Snapshot()) {
			t.Fatalf("round %d: published view differs from a fresh maintainer's", round)
		}
	}
}

// TestPubStateWritten: the list Snapshot hands Paged.Update is the
// maintainer's only when it describes the whole interval, and an apply
// that wrote nothing is "nothing written", never "unknown" — a maintainer
// whose repair changed nothing (BC on a graph without articulation
// points) leaves its list nil.
func TestPubStateWritten(t *testing.T) {
	list := []int32{4, 2}
	for _, c := range []struct {
		name    string
		prepare func(*pubState)
		given   []int32
		want    []int32 // nil: unknown
	}{
		{"no apply", func(*pubState) {}, list, []int32{}},
		{"one apply", func(p *pubState) { p.applied() }, list, list},
		{"one apply, nil list", func(p *pubState) { p.applied() }, nil, []int32{}},
		{"two applies", func(p *pubState) { p.applied(); p.applied() }, list, nil},
		{"unknown", func(p *pubState) { p.unknown() }, nil, nil},
		{"unknown then one apply", func(p *pubState) { p.unknown(); p.applied() }, list, nil},
	} {
		var p pubState
		c.prepare(&p)
		got := p.written(c.given)
		if (got == nil) != (c.want == nil) || len(got) != len(c.want) {
			t.Errorf("%s: written = %v (nil %v), want %v (nil %v)", c.name, got, got == nil, c.want, c.want == nil)
		}
		if again := p.written(list); again == nil || len(again) != 0 {
			t.Errorf("%s: a second Snapshot with no apply between gets %v, want nothing written", c.name, again)
		}
	}
}

// TestSSSPSource: the view reports the maintainer's source, and a
// recompute (the heal, VerifyRecovered) keeps it.
func TestSSSPSource(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(3)), 60, 180, true)
	s := SSSP(sssp.NewInc(g, 3))
	for _, when := range []string{"as built", "after Recompute"} {
		if when == "after Recompute" {
			s.Recompute()
		}
		v := s.Snapshot().(SSSPView)
		if v.Src != 3 || !slices.Equal(v.Dist.Slice(), sssp.Dijkstra(g, 3)) {
			t.Fatalf("%s: view of source %d, want the distances from the maintainer's source 3", when, v.Src)
		}
	}
}

// TestSimPublishWritten: Sim's view re-gathers the match lists of the
// pattern nodes its written pairs name and shares every other list, pages
// and all, with the previous epoch; over random applies, a RestoreState
// into a maintainer that fell behind and a Recompute, it equals a full
// re-gather of the relation.
func TestSimPublishWritten(t *testing.T) {
	type simAdapter = adapter[*sim.Inc, SimView]
	rng := rand.New(rand.NewSource(9))
	g := gen.ErdosRenyi(rng, pageSize+40, pageSize, true)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetLabel(graph.NodeID(v), graph.Label('a'+rng.Intn(3)))
	}
	// a → b ← c: an edge's update can change the matches of a or of c
	// alone, and b's never change.
	q := graph.New(3, true)
	for u := range 3 {
		q.SetLabel(graph.NodeID(u), graph.Label('a'+u))
	}
	q.InsertEdge(0, 1, 1)
	q.InsertEdge(2, 1, 1)
	a := Sim(sim.NewInc(g.Clone(), q)).(*simAdapter)
	behind := Sim(sim.NewInc(g.Clone(), q)).(*simAdapter) // takes no apply until it is restored
	behind.Snapshot()
	var missed []graph.Batch // the batches a took since behind was built
	check := func(when string, v SimView) {
		t.Helper()
		r := a.m.Relation()
		count := 0
		for u := range q.NumNodes() {
			var want []graph.NodeID
			for d := 0; d < g.NumNodes(); d++ {
				if r.Match(graph.NodeID(d), graph.NodeID(u)) {
					want = append(want, graph.NodeID(d))
				}
			}
			if !slices.Equal(v.Matches[u].Slice(), want) {
				t.Fatalf("%s: pattern node %d publishes %v, the relation holds %v", when, u, v.Matches[u].Slice(), want)
			}
			count += len(want)
		}
		if v.NQ != q.NumNodes() || v.Count != count {
			t.Fatalf("%s: nq %d, count %d; want %d and %d", when, v.NQ, v.Count, q.NumNodes(), count)
		}
	}
	prev := a.Snapshot().(SimView)
	check("first", prev)
	partial := 0
	for round := 1; round <= 120; round++ {
		switch round % 40 {
		case 20: // restore a's state into the maintainer that fell behind, and carry on with it
			for _, b := range missed {
				behind.Graph().Advance(b)
			}
			var blob bytes.Buffer
			if err := a.PersistState(&blob); err != nil {
				t.Fatal(err)
			}
			if err := behind.RestoreState(&blob); err != nil {
				t.Fatal(err)
			}
			a, behind, missed = behind, Sim(sim.NewInc(a.Graph().Clone(), q)).(*simAdapter), nil
			behind.Snapshot()
			prev = a.Snapshot().(SimView)
			check("after RestoreState", prev)
			continue
		case 0:
			a.Recompute()
			prev = a.Snapshot().(SimView)
			check("after Recompute", prev)
			continue
		}
		b := gen.RandomUpdates(rng, a.Graph(), 1+rng.Intn(3), 0.5)
		applyAlone(a, b)
		missed = append(missed, b)
		touched := make([]bool, q.NumNodes())
		n := 0
		for _, x := range a.Written() {
			if u := int(x) % q.NumNodes(); !touched[u] {
				touched[u] = true
				n++
			}
		}
		cur := a.Snapshot().(SimView)
		check("after an apply", cur)
		for u, was := range prev.Matches {
			if !touched[u] && !sharesPages(was, cur.Matches[u]) {
				t.Fatalf("round %d: pattern node %d was not written and its list was rebuilt", round, u)
			}
		}
		if n > 0 && n < q.NumNodes() {
			partial++
		}
		prev = cur
	}
	if partial == 0 {
		t.Fatal("no apply wrote the pairs of some pattern nodes but not all: sharing was never put to the test")
	}

	// Unwritten lists are not even gathered again: a pair flipped behind
	// the adapter's back, in no written list, stays unpublished.
	r, cnt, ts, clock := a.m.ExportState()
	r[0] = !r[0] // data node 0, pattern node 0
	if err := a.m.RestoreState(r, cnt, ts, clock); err != nil {
		t.Fatal(err)
	}
	applyAlone(a, nil)
	if cur := a.Snapshot().(SimView); !sharesPages(prev.Matches[0], cur.Matches[0]) {
		t.Fatal("an apply that wrote nothing gathered pattern node 0's list again")
	}
}

// sharesPages reports whether q is p: the same length over the same pages.
func sharesPages[T PageElem](p, q Paged[T]) bool {
	if p.Len() != q.Len() {
		return false
	}
	for k := 0; k < p.numPages(); k++ {
		if p.page(k) != q.page(k) {
			return false
		}
	}
	return true
}

// TestCheckpointFixture: testdata/sixclass holds a six-class v2
// checkpoint and a WAL tail of three records (testdata/sixclass/README.md).
// Every class must restore from it, and replay the tail to the views saved
// beside it with no divergence from a recompute. Re-persisted straight
// after restoring, every class's state must be the bytes its v2 state was
// converted to — a restore that drops a timestamp or an interval changes no
// view, but fails here — and the v3 checkpoint must equal the committed
// golden v3.ckpt2, written in another process; restored and persisted
// again, it is the same bytes.
func TestCheckpointFixture(t *testing.T) {
	restore := func(dir string) (map[string]Serveable, *Recovery) {
		rec, err := LoadRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]Serveable{}
		for _, c := range Classes {
			if _, ok := rec.Algos[c.Name]; !ok {
				t.Fatalf("the checkpoint in %s holds no state for %s", dir, c.Name)
			}
			targets[c.Name] = opsBatchRun(c.Name, rec.Algos[c.Name].Graph)
			if err := rec.Restore(c.Name, targets[c.Name]); err != nil {
				t.Fatalf("restore %s: %v", c.Name, err)
			}
		}
		return targets, rec
	}
	// persist checkpoints the restored targets into a fresh directory and
	// returns the checkpoint file's bytes and the recovery it loads.
	persist := func(targets map[string]Serveable, rec *Recovery) ([]byte, *Recovery) {
		svc, dir := NewService(), t.TempDir()
		dur, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for algo, m := range targets {
			epoch, batches := rec.Base(algo)
			if _, err := svc.Host(m, Options{BaseEpoch: epoch, BaseBatches: batches}); err != nil {
				t.Fatal(err)
			}
		}
		if err := dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dur.Close()
		svc.Close()
		file, err := os.ReadFile(filepath.Join(dir, wal.CheckpointName(rec.CheckpointEpoch)))
		if err != nil {
			t.Fatal(err)
		}
		persisted, err := LoadRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		return file, persisted
	}

	dir := fixtureDir(t, "testdata/sixclass/data")
	targets, rec := restore(dir)
	v3, persisted := persist(targets, rec)
	for _, c := range Classes {
		if got, want := persisted.Algos[c.Name].State, rec.Algos[c.Name].State; !bytes.Equal(got, want) {
			t.Errorf("%s: re-persisted %d bytes, differing from the fixture's %d converted", c.Name, len(got), len(want))
		}
	}
	if golden, err := os.ReadFile("testdata/sixclass/v3.ckpt2"); err != nil || !bytes.Equal(v3, golden) {
		t.Errorf("re-persisted checkpoint of %d bytes differs from the golden v3.ckpt2 (%v)", len(v3), err)
	}
	if again, _ := persist(restore(persisted.dir)); !bytes.Equal(again, v3) {
		t.Errorf("persisted %d bytes straight after restoring, differing from the checkpoint's %d", len(again), len(v3))
	}

	// Start on the v2 checkpoint and replay the tail: the saved views, and
	// no divergence.
	targets, rec = startClosed(t, dir, nil, opsBuild, opsAlgos()...)
	if n := rec.Replayed; n != 3 {
		t.Fatalf("replayed %d records, want the tail's 3", n)
	}
	for _, c := range Classes {
		want, err := os.ReadFile(filepath.Join("testdata/sixclass/views", c.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(targets[c.Name].Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: replayed view %s, saved %s", c.Name, got, want)
		}
	}
	if div := VerifyRecovered(targets, nil); len(div) != 0 {
		t.Fatalf("replayed state diverged from a recompute: %v", div)
	}
}

// fixtureDir copies the files of the data directory src into a fresh
// directory, which recovery may write to.
func fixtureDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecomputeReadsTheRows: a recompute — here a Host.Verify's, of lcc,
// which has no certificate and is checked by one — reads the graph's one
// adjacency. Staging an update into the graph's own Flat changes nothing
// (the graph already holds whatever it applied), so an edge 3–4 the graph
// never took is not published.
func TestRecomputeReadsTheRows(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	g := graph.New(6, false)
	g.InsertEdge(0, 1, 2)
	g.InsertEdge(1, 2, 2)
	h, err := svc.Host(LCC(lcc.NewInc(g)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.WithState(func(m Serveable) error {
		g := m.Graph()
		g.Flat().Stage(g, graph.Batch{{Kind: graph.InsertEdge, From: 3, To: 4, W: 1}})
		return nil
	})
	if diverged, err := h.Verify(); diverged || err != nil {
		t.Fatalf("Verify: diverged %v, %v", diverged, err)
	}
	if got := h.View().Data.(LCCView).Deg.Slice(); got[3] != 0 || got[4] != 0 {
		t.Errorf("degrees %v: nodes 3 and 4 counted an edge the rows lack", got)
	}
	h.WithState(func(m Serveable) error {
		if err := m.Graph().CheckConsistent(); err != nil {
			t.Error(err)
		}
		return nil
	})
}

// TestRecomputeInPlaceIsNewInc: Recompute reruns a class's batch algorithm
// in the maintainer it has, and Start relies on that to build each class
// once. After raw churn has grown the maintainer's scratch and written its
// ledger, the rerun must leave what the package's NewInc builds on a copy
// of the graph: the same state bytes, view and written list — and a next
// round repaired alike, from the graph's round.
func TestRecomputeInPlaceIsNewInc(t *testing.T) {
	newInc := map[string]func(g *graph.Graph) Serveable{
		"sssp": func(g *graph.Graph) Serveable { return SSSP(sssp.NewInc(g, 0)) },
		"cc":   func(g *graph.Graph) Serveable { return CC(cc.NewInc(g)) },
		"sim":  func(g *graph.Graph) Serveable { return Sim(sim.NewInc(g, opsPattern())) },
		"dfs":  func(g *graph.Graph) Serveable { return DFS(dfs.NewInc(g)) },
		"lcc":  func(g *graph.Graph) Serveable { return LCC(lcc.NewInc(g)) },
		"bc":   func(g *graph.Graph) Serveable { return BC(bc.NewInc(g)) },
	}
	stream := makeStream(5, opsNodes, 400)
	for _, c := range Classes {
		t.Run(c.Name, func(t *testing.T) {
			same := func(when string, m, fresh Serveable) {
				t.Helper()
				if !bytes.Equal(persisted(t, m), persisted(t, fresh)) {
					t.Errorf("%s: state bytes differ from NewInc's", when)
				}
				got, _ := json.Marshal(m.Snapshot())
				want, _ := json.Marshal(fresh.Snapshot())
				if !bytes.Equal(got, want) {
					t.Errorf("%s: view differs from NewInc's: %s", when, firstDiff(got, want, want))
				}
				written := func(m Serveable) []int32 { return m.(interface{ Written() []int32 }).Written() }
				if !slices.Equal(written(m), written(fresh)) {
					t.Errorf("%s: written %v, NewInc's %v", when, written(m), written(fresh))
				}
			}
			m := newInc[c.Name](opsBase())
			for i := 0; i < 300; i += 50 {
				applyAlone(m, stream[i:i+50])
			}
			m.Recompute()
			fresh := newInc[c.Name](m.Graph().Clone())
			same("after Recompute", m, fresh)
			applyAlone(m, stream[300:])
			applyAlone(fresh, stream[300:])
			same("a round after it", m, fresh)
		})
	}
}
