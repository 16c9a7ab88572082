package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
	"incgraph/internal/wal"
)

// TestBCRestoreOlderCheckpoint: a checkpoint written before the edge
// partition became per-node arrays carries the flags and a map keyed by
// edge. It must still restore — to the structure of the graph it was taken
// of — and the maintainer must repair on from there; the shape written now
// must round-trip without a recompute.
func TestBCRestoreOlderCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi(rng, 80, 90, false)
	want := bc.Run(g)

	// The envelope as the older adapter encoded it.
	older := struct {
		Articulation []bool
		EdgeComp     map[[2]graph.NodeID]int32
	}{Articulation: want.Articulation, EdgeComp: map[[2]graph.NodeID]int32{}}
	g.Edges(func(u, v graph.NodeID, _ int64) {
		older.EdgeComp[[2]graph.NodeID{min(u, v), max(u, v)}] = want.EdgeComp(u, v)
	})
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(older); err != nil {
		t.Fatal(err)
	}

	type bcAdapter = adapter[*bc.Inc, BCView, bcState]
	check := func(when string, s *bcAdapter) {
		t.Helper()
		g := s.m.Graph()
		if !s.m.Result().Equivalent(bc.Run(g), g) {
			t.Fatalf("%s: structure differs from Run", when)
		}
		if !snapshotEqual(s.Snapshot(), BC(bc.NewInc(g.Clone())).Snapshot()) {
			t.Fatalf("%s: published view differs from a fresh maintainer's", when)
		}
	}
	s := BC(bc.NewInc(g.Clone())).(*bcAdapter)
	s.Snapshot()
	if err := s.RestoreState(&blob); err != nil {
		t.Fatalf("restore of the older shape: %v", err)
	}
	check("after restoring the older shape", s)
	for round := 0; round < 5; round++ {
		s.Apply(gen.RandomUpdates(rng, s.Graph(), 12, 0.5))
		check("repairing after it", s)
	}

	blob.Reset()
	if err := s.PersistState(&blob); err != nil {
		t.Fatal(err)
	}
	r := BC(bc.NewInc(s.Graph().Clone())).(*bcAdapter)
	built := r.m
	if err := r.RestoreState(&blob); err != nil {
		t.Fatal(err)
	}
	if r.m != built {
		t.Fatal("restoring the current shape rebuilt the maintainer")
	}
	if got, want := r.m.Result().NumComps(), s.m.Result().NumComps(); got != want {
		t.Fatalf("restored %d blocks, persisted %d", got, want)
	}
	check("after a round trip", r)
	r.Apply(gen.RandomUpdates(rng, r.Graph(), 12, 0.5))
	check("repairing after a round trip", r)
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
	type simAdapter = adapter[*sim.Inc, SimView, simState]
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
				behind.Graph().Apply(b)
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
		a.Apply(b)
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
	a.Apply(nil)
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

// stateValue gob-decodes a state blob of a's class into its envelope type:
// two blobs compare by value there even when gob, which numbers types per
// process in order of first use, wrote them with different bytes.
func (a *adapter[M, V, S]) stateValue(blob []byte) (any, error) {
	var st S
	err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st)
	return st, err
}

// TestCheckpointFixture: testdata/sixclass holds a six-class v1
// checkpoint, a graph blob and a stream position per class, and a WAL tail
// of three records, written before the classes shared one adapter
// (testdata/sixclass/README.md). Every class must restore from it, and
// replay the tail to the views saved beside it with no divergence from a
// recompute. Re-persisted straight after restoring, into a v2 checkpoint
// that holds the graph once, every class's state must equal the fixture's
// by value — a restore that drops a timestamp or an interval changes no
// view, but fails here — and restore and persist again to the same bytes.
// (The v1 blobs are not comparable byte for byte: gob's type numbers
// shifted when a v1 writer encoded an envelope between two classes' blobs.)
func TestCheckpointFixture(t *testing.T) {
	restore := func(dir string) (map[string]Serveable, *Recovery) {
		rec, err := LoadRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]Serveable{}
		for _, c := range opsClasses {
			if _, ok := rec.Algos[c.algo]; !ok {
				t.Fatalf("the checkpoint in %s holds no state for %s", dir, c.algo)
			}
			targets[c.algo] = c.build(rec.Algos[c.algo].Graph)
			if err := rec.Restore(c.algo, targets[c.algo]); err != nil {
				t.Fatalf("restore %s: %v", c.algo, err)
			}
		}
		return targets, rec
	}
	// persist checkpoints the restored targets into a fresh directory and
	// loads it back.
	persist := func(targets map[string]Serveable, rec *Recovery) *Recovery {
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
		persisted, err := LoadRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		if persisted.CheckpointEpoch != rec.CheckpointEpoch || persisted.cut.NumEdges() != rec.cut.NumEdges() {
			t.Errorf("re-persisted cut: epoch %d, %d edges; restored %d, %d edges",
				persisted.CheckpointEpoch, persisted.cut.NumEdges(), rec.CheckpointEpoch, rec.cut.NumEdges())
		}
		return persisted
	}

	dir := fixtureDir(t, "testdata/sixclass/data")
	targets, rec := restore(dir)
	v2 := persist(targets, rec)
	for _, c := range opsClasses {
		m := targets[c.algo].(interface{ stateValue([]byte) (any, error) })
		want, err := m.stateValue(rec.Algos[c.algo].State)
		if err != nil {
			t.Fatalf("%s: the fixture's state: %v", c.algo, err)
		}
		got, err := m.stateValue(v2.Algos[c.algo].State)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-persisted state (%v) differs from the fixture's", c.algo, err)
		}
	}
	again := persist(restore(v2.dir))
	for _, c := range opsClasses {
		if got, want := again.Algos[c.algo].State, v2.Algos[c.algo].State; !bytes.Equal(got, want) {
			t.Errorf("%s: persisted %d bytes straight after restoring, differing from the checkpoint's %d", c.algo, len(got), len(want))
		}
	}

	// Start on the v1 checkpoint and replay the tail: the saved views, and
	// no divergence.
	targets, rec = startClosed(t, dir, nil, opsBuild, opsAlgos()...)
	if n := rec.Replayed; n != 3 {
		t.Fatalf("replayed %d records, want the tail's 3", n)
	}
	for _, c := range opsClasses {
		want, err := os.ReadFile(filepath.Join("testdata/sixclass/views", c.algo+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(targets[c.algo].Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: replayed view %s, saved %s", c.algo, got, want)
		}
	}
	if div := VerifyRecovered(targets, nil); len(div) != 0 {
		t.Fatalf("replayed state diverged from a recompute: %v", div)
	}
}

// TestCheckpointFixtureBC4D615: testdata/twoclass-bc4d615 is the data
// directory of a two-class daemon built from bc4d615, killed -9 with two v1
// checkpoints and a WAL tail of two records, and the /query bodies it
// served just before (testdata/twoclass-bc4d615/README.md). The newest
// checkpoint restores, and the tail replays to those views and epochs.
func TestCheckpointFixtureBC4D615(t *testing.T) {
	const fixture = "testdata/twoclass-bc4d615"
	targets, rec := startClosed(t, fixtureDir(t, fixture+"/data"), nil, buildFrom(ssspCC), "sssp", "cc")
	if rec.CheckpointEpoch != 60 {
		t.Fatalf("checkpoint epoch %d, want the stream's 60 (the v1 file is named by the sum, 120)", rec.CheckpointEpoch)
	}
	if n := rec.Replayed; n != 2 {
		t.Fatalf("replayed %d records, want the tail's 2", n)
	}
	if div := VerifyRecovered(targets, nil); len(div) != 0 {
		t.Fatalf("replayed state diverged from a recompute: %v", div)
	}
	for algo, m := range targets {
		raw, err := os.ReadFile(filepath.Join(fixture, "views", algo+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var saved struct {
			Epoch, Batches uint64
			Data           json.RawMessage
		}
		if err := json.Unmarshal(raw, &saved); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, saved.Data) {
			t.Errorf("%s: replayed view %s, saved %s", algo, got, saved.Data)
		}
		if epoch, batches := rec.Base(algo); epoch != saved.Epoch || batches != saved.Batches {
			t.Errorf("%s: resumes at epoch %d, batch %d; the daemon served %d, %d", algo, epoch, batches, saved.Epoch, saved.Batches)
		}
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

// TestRecomputeReadsTheRows: a recompute — here a Host.Verify's — lays the
// shared Flat view out again from the graph's rows before the batch
// constructor reads it, so a view out of step with the rows (an edge 3–4
// the rows lack) is neither certified by nor published from it.
func TestRecomputeReadsTheRows(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Get("cc")
	h.WithState(func(m Serveable) error {
		g := m.Graph()
		g.Flat().Stage(g, graph.Batch{{Kind: graph.InsertEdge, From: 3, To: 4, W: 1}})
		return nil
	})
	if diverged, err := h.Verify(); diverged || err != nil {
		t.Fatalf("Verify: diverged %v, %v", diverged, err)
	}
	if got := h.View().Data.(CCView).Labels.Slice(); got[4] != 4 {
		t.Errorf("labels %v: node 4 joined 3 over an edge the rows lack", got)
	}
	h.WithState(func(m Serveable) error {
		if err := checkFlatRows(m.Graph()); err != nil {
			t.Error(err)
		}
		return nil
	})
}
