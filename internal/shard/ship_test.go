package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// startWALPrimary opens a WAL in its own directory and serves it over
// the streaming API the way a shard daemon does (under /wal/).
func startWALPrimary(t *testing.T) (*wal.Log, *httptest.Server) {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/wal/", http.StripPrefix("/wal", l.StreamHandler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); l.Close() })
	return l, srv
}

// TestPullWALIncremental: shipping is idempotent and incremental — a
// second pull with nothing new moves zero bytes; appends (including
// across a segment rotation) ship only the new suffix.
func TestPullWALIncremental(t *testing.T) {
	l, srv := startWALPrimary(t)
	dir := t.TempDir()
	b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 3}}
	if err := l.Append(wal.Record{Batch: b}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p1, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || p1.Shipped == 0 {
		t.Fatalf("first pull: %+v err=%v", p1, err)
	}
	p2, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || p2.Shipped != 0 {
		t.Fatalf("idle pull moved %d bytes (err=%v)", p2.Shipped, err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Batch: b}); err != nil {
		t.Fatal(err)
	}
	p3, err := PullWAL(ctx, nil, srv.URL, dir)
	if err != nil || p3.Shipped == 0 {
		t.Fatalf("post-rotation pull: %+v err=%v", p3, err)
	}
	// The replica directory now mirrors the primary's segments.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("replica dir has %d entries, want both segments", len(ents))
	}
	for _, e := range ents {
		fi, _ := e.Info()
		if fi.Size() == 0 {
			t.Fatalf("shipped segment %s is empty", e.Name())
		}
	}
	// A rotation with nothing appended yet leaves an empty segment — the
	// one a checkpoint taken then replays from — and it is mirrored too.
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PullWAL(ctx, nil, srv.URL, dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, wal.SegmentName(seq))); err != nil || fi.Size() != 0 {
		t.Fatalf("empty segment %d not mirrored: %v", seq, err)
	}
}

// TestFollowerReplaysLiveStream: a Follower tailing a primary's WAL
// over HTTP converges its service's hosts to the primary's graph, with
// exact per-algo epoch and batch accounting (a record is one applied
// batch), including records appended while the follower is already
// running and across a rotation.
func TestFollowerReplaysLiveStream(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := gen.PowerLaw(rng, 120, 5, true)
	primary := base.Clone()

	l, srv := startWALPrimary(t)
	dir := t.TempDir()

	svc := serve.NewService()
	defer svc.Close()
	ssspHost, err := svc.Host(serve.SSSP(sssp.NewInc(base.Clone(), 0)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccHost, err := svc.Host(serve.CC(cc.NewInc(base.Clone())), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(FollowerOptions{
		Source:  srv.URL,
		Dir:     dir,
		Service: svc,
	})
	go f.Run()

	var wantUnits uint64
	appendBatch := func(count int) {
		b := gen.RandomUpdates(rng, primary, count, 0.5)
		primary.Apply(b)
		if err := l.Append(wal.Record{Batch: b}); err != nil {
			t.Fatal(err)
		}
		wantUnits += uint64(len(b))
	}
	appendBatch(30)
	appendBatch(30)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendBatch(30)

	deadline := time.Now().Add(10 * time.Second)
	for {
		ep := f.Epochs()
		if ep["sssp"] == wantUnits && ep["cc"] == wantUnits {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epochs %v, want %d (status %+v)", ep, wantUnits, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()

	if s, c := ssspHost.View().Batches, ccHost.View().Batches; s != 3 || c != 3 {
		t.Fatalf("batch accounting sssp=%d cc=%d, want 3 per algo", s, c)
	}
	st := f.Status()
	if st.Records != 3 || st.ShippedBytes == 0 || st.LastError != "" {
		t.Fatalf("status %+v", st)
	}

	// After Stop nothing submits any more: both hosts must hold exactly
	// the primary's graph and publish what a full recompute answers.
	ssspHost.WithState(func(m serve.Serveable) error {
		if got := m.Graph().NumEdges(); got != primary.NumEdges() {
			t.Errorf("replica sssp graph has %d edges, primary %d", got, primary.NumEdges())
		}
		return nil
	})
	checkReplicaViews(t, svc, primary, 0)
}

// checkReplicaViews compares the published sssp and cc views of a
// replica's hosts with batch answers on the graph g.
func checkReplicaViews(t *testing.T, svc *serve.Service, g *graph.Graph, src graph.NodeID) {
	t.Helper()
	wantDist := sssp.Dijkstra(g, src)
	gotDist := svc.Get("sssp").View().Data.(serve.SSSPView).Dist.Slice()
	for v := range wantDist {
		if gotDist[v] != wantDist[v] {
			t.Fatalf("replayed dist[%d] = %d, want %d", v, gotDist[v], wantDist[v])
		}
	}
	wantLabels := cc.CCfp(g)
	gotLabels := svc.Get("cc").View().Data.(serve.CCView).Labels.Slice()
	for v := range wantLabels {
		if gotLabels[v] != wantLabels[v] {
			t.Fatalf("replayed label[%d] = %d, want %d", v, gotLabels[v], wantLabels[v])
		}
	}
}

// TestFollowerSurvivesDeadPrimary: pulls fail, the error is surfaced in
// Status, and Stop still drains cleanly.
func TestFollowerSurvivesDeadPrimary(t *testing.T) {
	f := NewFollower(FollowerOptions{
		Source:  "http://127.0.0.1:1", // nothing listens here
		Dir:     t.TempDir(),
		Service: serve.NewService(),
	})
	go f.Run()
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().LastError == "" {
		if time.Now().After(deadline) {
			t.Fatal("pull failure never surfaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.Stop()
}

// TestFollowerIsolatesReplayPanic: a maintainer that panics on a replayed
// record degrades its host, not the replica. The apply loop advanced the
// maintainer's graph by the record before the class's apply, as it does
// every graph of its hosts; its recover fence absorbs the panic and the
// host heals by batch recompute over the graph as it stands, without
// advancing it again. The injected panic strikes either before the
// maintainer takes the record's round of its graph, so the heal must bring
// the maintainer up to the graph's round, or after its repair took the
// round, as a panic late in a repair does, so the heal must not take it
// again. The follower keeps submitting, and the replica ends at the
// primary's epoch with the primary's answers.
func TestFollowerIsolatesReplayPanic(t *testing.T) {
	t.Run("before-graph", func(t *testing.T) { testFollowerReplayPanic(t, false) })
	t.Run("after-graph", func(t *testing.T) { testFollowerReplayPanic(t, true) })
}

func testFollowerReplayPanic(t *testing.T, afterGraph bool) {
	rng := rand.New(rand.NewSource(78))
	base := gen.PowerLaw(rng, 120, 5, true)
	primary := base.Clone()
	l, srv := startWALPrimary(t)

	const panicAt = 3 // 1-based replayed record
	ssspGraph, applies := base.Clone(), 0
	svc := serve.NewService()
	defer svc.Close()
	ssspInc := sssp.NewInc(ssspGraph, 0)
	ssspHost, err := svc.Host(serve.SSSP(ssspInc), serve.Options{
		BeforeApply: func(algo string, b graph.Batch) {
			if applies++; applies == panicAt {
				if afterGraph {
					ssspInc.Repair() // in the apply loop, the maintainer's one caller
				}
				panic("injected: sssp repair")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(serve.CC(cc.NewInc(base.Clone())), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(FollowerOptions{Source: srv.URL, Dir: t.TempDir(), Service: svc})
	go f.Run()
	defer f.Stop()

	var wantUnits uint64
	for i := 0; i < 5; i++ {
		b := gen.RandomUpdates(rng, primary, 20, 0.5)
		if i+1 == panicAt {
			// The poisoned record also moves edges to new weights: a delete
			// and a reinsert each, which a re-apply must not undo.
			k := 0
			primary.Edges(func(u, v graph.NodeID, w int64) {
				if k++; k%40 == 0 {
					b = append(b,
						graph.Update{Kind: graph.DeleteEdge, From: u, To: v},
						graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w + 1})
				}
			})
		}
		primary.Apply(b)
		if err := l.Append(wal.Record{Batch: b}); err != nil {
			t.Fatal(err)
		}
		wantUnits += uint64(len(b))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The record count lands after the last record's epochs publish.
		ep := f.Epochs()
		if ep["sssp"] == wantUnits && ep["cc"] == wantUnits && f.Status().Records == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epochs %v, want %d (status %+v)", ep, wantUnits, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := ssspHost.Stats()
	if st.Panics != 1 || st.Heals != 1 || st.Degraded || ssspHost.View().Degraded {
		t.Fatalf("sssp host after the injected panic: panics=%d heals=%d degraded=%v", st.Panics, st.Heals, st.Degraded)
	}
	if fs := f.Status(); fs.Records != 5 || fs.LastError != "" {
		t.Fatalf("follower did not keep running past the panic: %+v", fs)
	}
	checkReplicaViews(t, svc, primary, 0)
	ssspHost.WithState(func(m serve.Serveable) error {
		g := m.Graph()
		if g.NumEdges() != primary.NumEdges() {
			t.Errorf("the healed graph holds %d edges, the primary's %d", g.NumEdges(), primary.NumEdges())
		}
		g.Edges(func(u, v graph.NodeID, w int64) {
			if !primary.HasEdge(u, v) || primary.Weight(u, v) != w {
				t.Errorf("the healed graph holds %d→%d at weight %d, the primary's %v at %d", u, v, w, primary.HasEdge(u, v), primary.Weight(u, v))
			}
		})
		return nil
	})
}

// TestFollowerRefusesTargetedRecord: every update reaches every class, so
// a replica refuses a record targeted at one, as recovery does: the error
// names the record, and neither the class it names nor any other applies
// it. The records around it replay as usual.
func TestFollowerRefusesTargetedRecord(t *testing.T) {
	base := graph.New(8, true)
	l, srv := startWALPrimary(t)
	svc := serve.NewService()
	defer svc.Close()
	for _, m := range []serve.Serveable{serve.SSSP(sssp.NewInc(base.Clone(), 0)), serve.CC(cc.NewInc(base.Clone()))} {
		if _, err := svc.Host(m, serve.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []wal.Record{
		{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}},
		{Algo: "sssp", Batch: graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 2, W: 1}}},
		{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 2, To: 3, W: 1}}},
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var logged []string
	f := NewFollower(FollowerOptions{
		Source: srv.URL, Dir: t.TempDir(), Service: svc,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	go f.Run()
	deadline := time.Now().Add(10 * time.Second)
	for ep := f.Epochs(); ep["sssp"] != 2 || ep["cc"] != 2; ep = f.Epochs() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epochs %v, want 2 each (status %+v)", ep, f.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.Stop()

	mu.Lock()
	refused := strings.Join(logged, "\n")
	mu.Unlock()
	if !strings.Contains(refused, wal.SegmentName(1)) || !strings.Contains(refused, `"sssp"`) {
		t.Fatalf("no refusal naming the record and its target in the follower's log:\n%s", refused)
	}
	for _, h := range svc.Hosts() {
		h.WithState(func(m serve.Serveable) error {
			if g := m.Graph(); !g.HasEdge(0, 1) || g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
				t.Errorf("%s holds edges 0-1 %v, 1-2 %v, 2-3 %v; want the two untargeted records only",
					h.Algo(), g.HasEdge(0, 1), g.HasEdge(1, 2), g.HasEdge(2, 3))
			}
			return nil
		})
	}
}

// TestFollowerWaitsAtZeroFilledTail: a primary segment extended by zeros
// past its last record — what a crash can leave — ships as it is. The
// primary's replay ends its durable prefix at the zeros; the follower's
// tail reads the frames by the same scanner, so it applies the record and
// waits there, without the error it once logged on every poll.
func TestFollowerWaitsAtZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/wal/", http.StripPrefix("/wal", l.StreamHandler()))
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); l.Close() }()
	if err := l.Append(wal.Record{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}}); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, wal.SegmentName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	svc := serve.NewService()
	defer svc.Close()
	if _, err := svc.Host(serve.SSSP(sssp.NewInc(graph.New(8, true), 0)), serve.Options{}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(FollowerOptions{Source: srv.URL, Dir: t.TempDir(), Service: svc})
	go f.Run()
	defer f.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for st := f.Status(); st.Epochs["sssp"] != 1 || st.LagBytes != 0; st = f.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(3 * followInterval) // polls that reach the zeros again
	if st := f.Status(); st.LastError != "" || st.Records != 1 {
		t.Fatalf("follower at the zero-filled tail: %d records, last error %q; want 1 and none", st.Records, st.LastError)
	}
}

// TestMixedVersionCheckpointDir: a directory whose checkpoint is v2
// (testdata/sixclass, written before the state codec) recovers from it
// and ships it unchanged — opening the log rewrites nothing. The next
// checkpoint is v3, under the same kind of name; the v2 file stays the
// fallback until a later checkpoint's prune removes it, and a replica
// bootstraps from whichever file is newest.
func TestMixedVersionCheckpointDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const fixture = "../serve/testdata/sixclass/data/"
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(fixture + e.Name())
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	svc := serve.NewService()
	_, _, err = serve.Start(svc, dir, []string{"sssp", "cc"}, func(algo string, g *graph.Graph) (serve.Serveable, error) {
		if algo == "sssp" {
			return serve.SSSP(sssp.NewInc(g, 0)), nil
		}
		return serve.CC(cc.NewInc(g)), nil
	}, nil, serve.Options{}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := serve.OpenDurable(svc, dir, serve.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); svc.Close(); d.Close() })

	// bootstrap pulls srv's WAL into a fresh directory and checks that the
	// replica recovers from the checkpoint at epoch, in the format magic.
	bootstrap := func(epoch uint64, magic string) {
		t.Helper()
		rdir := t.TempDir()
		if _, err := PullWAL(ctx, nil, srv.URL, rdir); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(filepath.Join(rdir, wal.CheckpointName(epoch))); err != nil || !strings.HasPrefix(string(b), magic) {
			t.Fatalf("replica's checkpoint at %d: %.4q (%v), want %s", epoch, b, err, magic)
		}
		if rec, err := serve.LoadRecovery(rdir); err != nil || rec.CheckpointEpoch != epoch {
			t.Fatalf("replica recovers from epoch %v (%v), want %d", rec, err, epoch)
		}
	}
	checkpoints := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return names
	}
	rng := rand.New(rand.NewSource(5))
	checkpoint := func() {
		if err := d.Ingest(nil, "", gen.RandomUpdates(rng, graph.New(48, false), 6, 1), trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	if names := checkpoints(); len(names) != 1 || names[0] != wal.CheckpointName(30) {
		t.Fatalf("checkpoints after opening the log: %v, want the fixture's alone", names)
	}
	bootstrap(30, "IGK2")
	checkpoint() // the fixture's 30, its tail's 18, and 6
	if rec, err := serve.LoadRecovery(dir); err != nil || rec.CheckpointEpoch != 54 {
		t.Fatalf("recovers from %v (%v), want the v3 checkpoint at 54", rec, err)
	}
	bootstrap(54, "IGK3")
	checkpoint()
	if names := checkpoints(); len(names) != 2 || names[0] != wal.CheckpointName(54) {
		t.Fatalf("checkpoints %v: the prune keeps the two v3 files", names)
	}
	bootstrap(60, "IGK3")
}
