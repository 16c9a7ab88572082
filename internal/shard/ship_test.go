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
	ssspHost, err := svc.Host(serve.SSSP(sssp.NewInc(base.Clone(), 0), 0), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccHost, err := svc.Host(serve.CC(cc.NewInc(base.Clone())), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(FollowerOptions{
		Source:   srv.URL,
		Dir:      dir,
		Service:  svc,
		Interval: 10 * time.Millisecond,
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
		Source:   "http://127.0.0.1:1", // nothing listens here
		Dir:      t.TempDir(),
		Service:  serve.NewService(),
		Interval: 5 * time.Millisecond,
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
// record degrades its host, not the replica. The apply loop's recover
// fence absorbs the panic and heals by batch recompute, the follower keeps
// submitting, and the replica ends at the primary's epoch with the
// primary's answers. The injected panic strikes after the batch reached
// the maintainer's graph, as a panic inside Apply's repair does, so the
// recompute sees every update the primary applied.
func TestFollowerIsolatesReplayPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	base := gen.PowerLaw(rng, 120, 5, true)
	primary := base.Clone()
	l, srv := startWALPrimary(t)

	const panicAt = 3 // 1-based replayed record
	ssspGraph, applies := base.Clone(), 0
	svc := serve.NewService()
	defer svc.Close()
	ssspHost, err := svc.Host(serve.SSSP(sssp.NewInc(ssspGraph, 0), 0), serve.Options{
		BeforeApply: func(algo string, b graph.Batch) {
			if applies++; applies == panicAt {
				ssspGraph.Apply(b) // in the apply loop, the graph's one writer
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
	f := NewFollower(FollowerOptions{Source: srv.URL, Dir: t.TempDir(), Service: svc, Interval: 10 * time.Millisecond})
	go f.Run()
	defer f.Stop()

	var wantUnits uint64
	for i := 0; i < 5; i++ {
		b := gen.RandomUpdates(rng, primary, 20, 0.5)
		primary.Apply(b)
		if err := l.Append(wal.Record{Batch: b}); err != nil {
			t.Fatal(err)
		}
		wantUnits += uint64(len(b))
	}
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
	st := ssspHost.Stats()
	if st.Panics != 1 || st.Heals != 1 || st.Degraded || ssspHost.View().Degraded {
		t.Fatalf("sssp host after the injected panic: panics=%d heals=%d degraded=%v", st.Panics, st.Heals, st.Degraded)
	}
	if fs := f.Status(); fs.Records != 5 || fs.LastError != "" {
		t.Fatalf("follower did not keep running past the panic: %+v", fs)
	}
	checkReplicaViews(t, svc, primary, 0)
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
	for _, m := range []serve.Serveable{serve.SSSP(sssp.NewInc(base.Clone(), 0), 0), serve.CC(cc.NewInc(base.Clone()))} {
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
		Source: srv.URL, Dir: t.TempDir(), Service: svc, Interval: 5 * time.Millisecond,
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
