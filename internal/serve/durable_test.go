package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// snapshotEqual compares two snapshots by what they encode to: views of
// different adapters share no pages, and a page carries encode caches
// reflect.DeepEqual would compare too.
func snapshotEqual(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// openDurableService builds a service hosting sssp and cc on clones of
// base, with the durable ingest path in dir.
func openDurableService(t *testing.T, base *graph.Graph, dir string, dopt DurableOptions) (*Service, *Durable) {
	t.Helper()
	svc := NewService()
	d, err := OpenDurable(svc, dir, dopt)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxBatch: 16}
	if _, err := svc.Host(SSSP(sssp.NewInc(base.Clone(), 0)), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(CC(cc.NewInc(base.Clone())), opt); err != nil {
		t.Fatal(err)
	}
	return svc, d
}

// ssspCC builds the two classes the durability tests host.
var ssspCC = map[string]func(*graph.Graph) Serveable{
	"sssp": func(g *graph.Graph) Serveable { return SSSP(sssp.NewInc(g, 0)) },
	"cc":   func(g *graph.Graph) Serveable { return CC(cc.NewInc(g)) },
}

// recoverAlgos runs the start of a service of sssp and cc on dir (on
// copies of base without a checkpoint), verification left to the caller,
// and returns its maintainers keyed by algo once the service is closed,
// plus the replayed-record count.
func recoverAlgos(t *testing.T, base *graph.Graph, dir string) (map[string]Serveable, *Recovery, int) {
	t.Helper()
	targets, rec := startClosed(t, dir, base, buildFrom(ssspCC), "sssp", "cc")
	return targets, rec, rec.Replayed
}

// TestCrashRecoveryEquivalence is the in-process half of the acceptance
// criterion: ingest a stream with a checkpoint mid-way, crash without
// drain (the WAL is simply abandoned), recover into fresh maintainers,
// and require the recovered answers to be deep-equal to a from-scratch
// batch run over the full durable stream.
func TestCrashRecoveryEquivalence(t *testing.T) {
	leakCheck(t)
	const nodes, chunks, chunkLen = 120, 40, 8
	dir := t.TempDir()
	base := gen.Synthetic(7, nodes, 5, true)
	stream := makeStream(23, nodes, chunks*chunkLen)

	svc, d := openDurableService(t, base, dir, DurableOptions{})
	hosts := svc.Hosts()
	for i := 0; i < chunks; i++ {
		chunk := stream[i*chunkLen : (i+1)*chunkLen]
		if err := d.Ingest(hosts, "", chunk, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		if i == chunks/2 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: no final checkpoint, no drain — just stop. Everything was
	// acknowledged under fsync=always, so the WAL holds the full stream.
	svc.Close()
	d.Close()

	targets, _, replayed := recoverAlgos(t, base, dir)
	if replayed == 0 {
		t.Fatal("expected a WAL tail to replay after the checkpoint")
	}
	if div := VerifyRecovered(targets, nil); len(div) != 0 {
		t.Fatalf("recovered state diverged from batch recompute: %v", div)
	}

	// From-scratch oracle: apply the whole stream the way the ingest path
	// did (chunk-wise, coalesced) and batch-compute the answers.
	for algo, m := range targets {
		og := base.Clone()
		for i := 0; i < chunks; i++ {
			og.Apply(stream[i*chunkLen : (i+1)*chunkLen].Net(og.Directed()))
		}
		var oracle Serveable
		switch algo {
		case "sssp":
			oracle = SSSP(sssp.NewInc(og, 0))
		case "cc":
			oracle = CC(cc.NewInc(og))
		}
		if !snapshotEqual(m.Snapshot(), oracle.Snapshot()) {
			t.Fatalf("%s: recovered answer differs from from-scratch recompute", algo)
		}
	}
}

// TestRecoveryTornTail tears bytes off the final WAL segment — the
// signature of a crash mid-append — and requires recovery to serve the
// durable prefix: every whole record, byte-equal to a from-scratch run
// over exactly those records.
func TestRecoveryTornTail(t *testing.T) {
	const nodes, updates = 80, 30
	dir := t.TempDir()
	base := gen.Synthetic(9, nodes, 4, true)
	stream := makeStream(31, nodes, updates)

	svc, d := openDurableService(t, base, dir, DurableOptions{})
	hosts := svc.Hosts()
	for _, u := range stream {
		if err := d.Ingest(hosts, "", graph.Batch{u}, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
	}
	seg := d.Log().ActiveSeq()
	svc.Close()
	d.Close()

	// Tear the last frame: 3 bytes off the tail leaves updates-1 whole
	// records.
	if err := faults.TruncateTail(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seg)), 3); err != nil {
		t.Fatal(err)
	}

	targets, _, replayed := recoverAlgos(t, base, dir)
	if replayed != updates-1 {
		t.Fatalf("replayed %d records, want %d (torn tail dropped)", replayed, updates-1)
	}
	og := base.Clone()
	for _, u := range stream[:updates-1] {
		og.Apply(graph.Batch{u}.Net(og.Directed()))
	}
	oracle := SSSP(sssp.NewInc(og, 0))
	if !snapshotEqual(targets["sssp"].Snapshot(), oracle.Snapshot()) {
		t.Fatal("recovered sssp differs from recompute over the durable prefix")
	}
}

// TestDroppedFsyncStillRecoversPrefix arms the lying-disk fault: fsyncs
// are skipped, yet — because the OS still has the writes — a clean
// process exit keeps them. The property under test is weaker but
// crucial: recovery must come up cleanly and agree with recompute over
// whatever prefix did survive, no matter where the WAL ends.
func TestDroppedFsyncStillRecoversPrefix(t *testing.T) {
	const nodes, updates = 60, 20
	dir := t.TempDir()
	base := gen.Synthetic(3, nodes, 4, true)
	stream := makeStream(41, nodes, updates)

	inj := faults.New()
	inj.DropFsyncs(5)
	svc, d := openDurableService(t, base, dir, DurableOptions{WAL: wal.Options{SyncHook: inj.SyncHook}})
	hosts := svc.Hosts()
	for _, u := range stream {
		if err := d.Ingest(hosts, "", graph.Batch{u}, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	d.Close()

	targets, _, replayed := recoverAlgos(t, base, dir)
	og := base.Clone()
	for _, u := range stream[:replayed] {
		og.Apply(graph.Batch{u}.Net(og.Directed()))
	}
	oracle := CC(cc.NewInc(og))
	if !snapshotEqual(targets["cc"].Snapshot(), oracle.Snapshot()) {
		t.Fatalf("recovered cc differs from recompute over the %d-record durable prefix", replayed)
	}
}

// TestPanicIsolationHeals drives the poisoned-apply fault: the second cc
// apply panics. The host must not crash, and must heal cc by batch
// recompute over the graph with the poisoned batch in it, so the final
// answer matches an oracle over the whole stream.
func TestPanicIsolationHeals(t *testing.T) {
	leakCheck(t)
	const nodes = 60
	base := gen.Synthetic(5, nodes, 4, false)
	inj := faults.New()
	inj.PanicOn("cc", 2)

	s, h := soloHost(t, CC(cc.NewInc(base.Clone())), Options{
		MaxBatch: 4, BeforeApply: inj.BeforeApply,
	})

	b1 := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 7, W: 1}}
	b2 := graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 8, W: 1}}
	b3 := graph.Batch{{Kind: graph.InsertEdge, From: 2, To: 9, W: 1}}
	if err := submitWait(s, b1); err != nil {
		t.Fatal(err)
	}
	if err := submitWait(s, b2); err != nil { // poisoned: panics before Apply
		t.Fatal(err)
	}
	if err := submitWait(s, b3); err != nil {
		t.Fatal(err)
	}

	st := h.Stats()
	if st.Panics != 1 || st.Heals != 1 || st.Degraded {
		t.Fatalf("stats after poisoned apply: panics=%d heals=%d degraded=%v", st.Panics, st.Heals, st.Degraded)
	}
	h.WithState(func(m Serveable) error {
		if !m.Graph().HasEdge(1, 8) {
			t.Error("the heal dropped the poisoned batch's edge 1-8")
		}
		return nil
	})
	// The poisoned batch panicked before reaching the maintainer; the heal
	// applied it to the graph before recomputing, so nothing is lost.
	og := base.Clone()
	for _, b := range []graph.Batch{b1, b2, b3} {
		og.Apply(b)
	}
	oracle := CC(cc.NewInc(og))
	v := h.View()
	if v.Degraded {
		t.Fatal("view still degraded after heal")
	}
	if !snapshotEqual(v.Data, oracle.Snapshot()) {
		t.Fatal("healed view differs from oracle")
	}
}

// brokenServeable panics in Apply and in Recompute — the double failure
// that must quarantine the host: stale degraded reads forever, never a
// crash, never an error to readers.
type brokenServeable struct {
	g    *graph.Graph
	good bool // first Apply succeeds, the rest panic
}

func (b *brokenServeable) Algo() string        { return "broken" }
func (b *brokenServeable) Graph() *graph.Graph { return b.g }
func (b *brokenServeable) Apply(batch graph.Batch) ApplyResult {
	if b.good {
		b.good = false
		return ApplyResult{}
	}
	panic("broken apply")
}
func (b *brokenServeable) Snapshot() any                  { return map[string]int{"ok": 1} }
func (b *brokenServeable) PersistState(w io.Writer) error { return nil }
func (b *brokenServeable) RestoreState(r io.Reader) error { return nil }
func (b *brokenServeable) Recompute()                     { panic("broken recompute") }

func TestQuarantineServesStale(t *testing.T) {
	g := gen.Synthetic(1, 10, 2, true)
	s, h := soloHost(t, &brokenServeable{g: g, good: true}, Options{MaxBatch: 1})

	b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 5, W: 1}}
	if err := submitWait(s, b); err != nil { // consumes the one good apply
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // panic → heal panics → quarantined; then drained
		if err := submitWait(s, b); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if !st.Degraded || st.Heals != 0 || st.Panics == 0 {
		t.Fatalf("expected permanent degradation: %+v", st)
	}
	v := h.View()
	if !v.Degraded || v.Data == nil {
		t.Fatalf("quarantined host must serve the stale view: %+v", v)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue accounting wedged: %+v", st)
	}
	if st.Epoch >= st.UpdatesApplied {
		t.Fatalf("degraded epoch must trail the consumed stream: %+v", st)
	}
}

// slowServeable blocks Apply until released, to saturate a host's queue
// deterministically. entered closes on the first Apply call, marking the
// moment the apply loop is parked and can no longer drain the queue.
// sizes records the net size of every batch applied (apply loop only).
type slowServeable struct {
	g       *graph.Graph
	release chan struct{}
	entered chan struct{}
	once    sync.Once
	sizes   []int
}

// newSlow returns a slowServeable over an n-node directed graph.
func newSlow(n int) *slowServeable {
	return &slowServeable{g: graph.New(n, true), release: make(chan struct{}), entered: make(chan struct{})}
}

// newSlowReleased returns a slowServeable that never blocks.
func newSlowReleased(n int) *slowServeable {
	s := newSlow(n)
	close(s.release)
	return s
}

// park submits one update to svc and returns once the apply loop is
// blocked inside the maintainer applying it.
func (s *slowServeable) park(t *testing.T, svc *Service) {
	t.Helper()
	if err := submit(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("apply loop never reached the maintainer")
	}
}

func (s *slowServeable) Algo() string        { return "slow" }
func (s *slowServeable) Graph() *graph.Graph { return s.g }
func (s *slowServeable) Apply(b graph.Batch) ApplyResult {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	s.sizes = append(s.sizes, len(b))
	return ApplyResult{}
}
func (s *slowServeable) Snapshot() any                  { return struct{}{} }
func (s *slowServeable) PersistState(w io.Writer) error { return nil }
func (s *slowServeable) RestoreState(r io.Reader) error { return nil }
func (s *slowServeable) Recompute()                     {}

// TestShed503 saturates a tiny submission queue and requires POST
// /update to shed with 503 + Retry-After instead of blocking — and to
// recover once the queue drains.
func TestShed503(t *testing.T) {
	slow := newSlow(10)
	svc := NewService()
	if _, err := svc.Host(slow, Options{MaxBatch: 1, Queue: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	released := false
	// The deferred drain must run before svc.Close, or Close would wait
	// forever on the blocked Apply.
	defer func() {
		if !released {
			close(slow.release)
		}
	}()

	// Park the apply loop inside a blocked Apply, then fill the
	// submission channel: with the loop parked, nothing can drain it, so
	// saturation is stable until release.
	slow.park(t, svc)
	for !svc.Saturated() {
		if err := submit(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Post(srv.URL+"/update", "text/plain", strings.NewReader("+ 3 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	// Drain and verify the path recovers: a closed release channel makes
	// every pending and future Apply return immediately.
	released = true
	close(slow.release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp2, err := http.Post(srv.URL+"/update", "text/plain", strings.NewReader("+ 3 4 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		code := resp2.StatusCode
		resp2.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("update path did not recover after drain: last status %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShedRetryAfterAfterRecovery: the shed Retry-After is the queue depth
// times the apply time this process spent per update it applied — not per
// update of the whole stream a recovery resumed at, which would round any
// backlog down to the 1 s floor.
func TestShedRetryAfterAfterRecovery(t *testing.T) {
	const queue = 32
	slow := newSlow(10)
	svc := NewService()
	if _, err := svc.Host(slow, Options{MaxBatch: 1, Queue: queue, BaseEpoch: 100000, BaseBatches: 1000}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	defer close(slow.release) // before svc.Close, which waits for the parked Apply

	// One update applied in ≥ 200 ms, one more parked in Apply, and a full
	// queue behind it: ≥ 100 ms an update this process applied, 32 queued.
	slow.park(t, svc)
	time.Sleep(200 * time.Millisecond)
	slow.release <- struct{}{}
	if err := submit(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// With MaxBatch 1 the loop applies what it takes at once: once the
	// queue is empty it is parked in the second Apply.
	for deadline := time.Now().Add(2 * time.Second); len(svc.in) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("apply loop never took the second update")
		}
		time.Sleep(time.Millisecond)
	}
	for !svc.Saturated() {
		if err := submit(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/update", "text/plain", strings.NewReader("+ 3 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 3 {
		t.Fatalf("Retry-After %q for %d queued updates at ≥ 100 ms each, want ≥ 3", resp.Header.Get("Retry-After"), queue)
	}
}

// TestDebugAppliesCap exercises the ?n= cap on GET /debug/applies.
func TestDebugAppliesCap(t *testing.T) {
	base := gen.Synthetic(4, 30, 3, true)
	svc := NewService()
	if _, err := svc.Host(SSSP(sssp.NewInc(base.Clone(), 0)), Options{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	for i := 0; i < 5; i++ {
		if err := submitWait(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: graph.NodeID(10 + i), W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		q    string
		want int
		code int
	}{
		{"?n=2", 2, http.StatusOK},
		{"", 5, http.StatusOK},
		{"?n=0", 0, http.StatusOK},
		{"?n=bogus", 0, http.StatusBadRequest},
		{"?n=-1", 0, http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + "/debug/applies" + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			resp.Body.Close()
			t.Fatalf("%q: status %d, want %d", tc.q, resp.StatusCode, tc.code)
		}
		if tc.code == http.StatusOK {
			var m map[string][]ApplyTrace
			if err := jsonDecode(resp.Body, &m); err != nil {
				t.Fatal(err)
			}
			if got := len(m["sssp"]); got != tc.want {
				t.Fatalf("%q: %d entries, want %d", tc.q, got, tc.want)
			}
		}
		resp.Body.Close()
	}

	// /debug/trace honors ?n= too: the bounded dump must stay valid JSON.
	resp, err := http.Get(srv.URL + "/debug/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr map[string]any
	if err := jsonDecode(resp.Body, &tr); err != nil {
		t.Fatalf("trace dump with ?n=: %v", err)
	}
}

// TestCheckpointEvery verifies automatic checkpointing by ingest count.
func TestCheckpointEvery(t *testing.T) {
	const nodes = 40
	dir := t.TempDir()
	base := gen.Synthetic(6, nodes, 3, true)
	svc, d := openDurableService(t, base, dir, DurableOptions{CheckpointEvery: 4})
	hosts := svc.Hosts()
	for i := 0; i < 9; i++ {
		u := graph.Update{Kind: graph.InsertEdge, From: graph.NodeID(i % nodes), To: graph.NodeID((i + 3) % nodes), W: 1}
		if err := d.Ingest(hosts, "", graph.Batch{u}, trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ck, err := wal.LatestCheckpoint(dir); err == nil && ck != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared after CheckpointEvery ingests")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Close()
	d.Close()
}

// TestSameEpochCheckpointKeepsFallbackSegments: a checkpoint taken with
// nothing ingested since the last one has the same stream epoch, so the same
// file name, and replaces that file — as the checkpoint-on-drain does
// right after a -checkpoint-every one. It must take over that file's place
// in the pruning window rather than push the older kept checkpoint's
// segments out: with the newest checkpoint corrupt, recovery falls back to
// the older one and must replay every record since it.
func TestSameEpochCheckpointKeepsFallbackSegments(t *testing.T) {
	const nodes, chunks, chunkLen = 120, 30, 8
	dir := t.TempDir()
	base := gen.Synthetic(7, nodes, 5, true)
	stream := makeStream(29, nodes, chunks*chunkLen)

	svc, d := openDurableService(t, base, dir, DurableOptions{})
	hosts := svc.Hosts()
	checkpoint := func() {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < chunks; i++ {
		if err := d.Ingest(hosts, "", stream[i*chunkLen:(i+1)*chunkLen], trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		if i+1 == 10 || i+1 == 20 {
			checkpoint()
		}
	}
	checkpoint()
	checkpoint() // same epoch: replaces the file the one before wrote
	svc.Close()
	d.Close()

	// Named by the stream epoch: every update once, however many classes.
	newest := filepath.Join(dir, wal.CheckpointName(chunks*chunkLen))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	targets, rec, replayed := recoverAlgos(t, base, dir)
	if want := uint64(20 * chunkLen); rec.CheckpointEpoch != want {
		t.Fatalf("recovered from the checkpoint at epoch %d, want the fallback at %d", rec.CheckpointEpoch, want)
	}
	if replayed != chunks-20 {
		t.Fatalf("replayed %d records after the fallback checkpoint, want %d", replayed, chunks-20)
	}
	for algo, m := range targets {
		og := base.Clone()
		for i := 0; i < chunks; i++ {
			og.Apply(stream[i*chunkLen : (i+1)*chunkLen].Net(og.Directed()))
		}
		oracle := map[string]Serveable{"sssp": SSSP(sssp.NewInc(og, 0)), "cc": CC(cc.NewInc(og))}[algo]
		if !snapshotEqual(m.Snapshot(), oracle.Snapshot()) {
			t.Fatalf("%s: recovered answer differs from the acknowledged stream's", algo)
		}
	}
}

// TestStartRefusesPrunedHead: two checkpoints let the log prune its first
// segment. With both checkpoint files corrupt, nothing covers the records
// that segment held, so Start must refuse naming it — not replay the
// surviving suffix onto the input graph, which VerifyRecovered, recomputing
// over that same graph, could not tell from the stream.
func TestStartRefusesPrunedHead(t *testing.T) {
	dir := t.TempDir()
	base := gen.Synthetic(7, 40, 4, true)
	stream := makeStream(31, 40, 3*8)
	svc, d := openDurableService(t, base, dir, DurableOptions{})
	for i := 0; i < 3; i++ {
		if err := d.Ingest(nil, "", stream[i*8:(i+1)*8], trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Close()
	d.Close()
	if _, err := os.Stat(filepath.Join(dir, wal.SegmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not pruned after two checkpoints: %v", err)
	}
	for _, epoch := range []uint64{8, 16} {
		if err := os.WriteFile(filepath.Join(dir, wal.CheckpointName(epoch)), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc = NewService()
	defer svc.Close()
	_, _, err := Start(svc, dir, []string{"sssp", "cc"}, buildFrom(ssspCC),
		func() (*graph.Graph, error) { return base.Clone(), nil }, Options{}, false, true)
	if err == nil || !strings.Contains(err.Error(), "segment 1 missing") {
		t.Fatalf("Start on a pruned head with no checkpoint: err = %v, want segment 1 missing", err)
	}
}

// TestIngestRefusesTarget: the journal takes every update for every class;
// an update targeted at one is refused before anything is logged or
// submitted.
func TestIngestRefusesTarget(t *testing.T) {
	base := gen.Synthetic(3, 20, 3, true)
	svc, d := openDurableService(t, base, t.TempDir(), DurableOptions{})
	defer d.Close()
	defer svc.Close()
	b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 5, W: 1}}
	if err := d.Ingest(svc.Hosts(), "cc", b, trace.TraceID{}, true); err == nil || !strings.Contains(err.Error(), `"cc"`) {
		t.Fatalf("targeted ingest: err = %v, want a refusal naming cc", err)
	}
	if appends, _ := d.Log().Stats(); appends != 0 {
		t.Fatalf("targeted ingest logged %d records", appends)
	}
	for _, h := range svc.Hosts() {
		if st := h.Stats(); st.UpdatesReceived != 0 {
			t.Fatalf("%s received %d updates from a refused ingest", h.Algo(), st.UpdatesReceived)
		}
	}
}

// armedPanic wraps a serveable whose Apply and Recompute panic while armed:
// a batch then quarantines its host (the apply panics, and so does the
// heal's recompute).
type armedPanic struct {
	Serveable
	armed *atomic.Bool
}

func (a armedPanic) Apply(b graph.Batch) ApplyResult {
	if a.armed.Load() {
		panic("armed")
	}
	return a.Serveable.Apply(b)
}

func (a armedPanic) Recompute() {
	if a.armed.Load() {
		panic("armed")
	}
	a.Serveable.Recompute()
}

// TestCheckpointAfterQuarantine: a quarantined class stops taking batches
// but keeps counting them, so its graph trails the stream. A checkpoint
// holds one graph, a healthy class's, and no state for the quarantined
// one; recovery rebuilds that one by a batch run on the cut's graph, so
// every recovered class holds the stream's graph and the answer on it.
// With every class quarantined the loop has still advanced the graph by
// every batch, so the cut is taken all the same — the graph and no class
// state — and the second checkpoint prunes the segments only the first
// replayed; recovery rebuilds both classes by batch runs on it.
func TestCheckpointAfterQuarantine(t *testing.T) {
	const nodes, chunkLen = 60, 40
	base := gen.Synthetic(13, nodes, 3, true)
	stream := makeStream(37, nodes, 4*chunkLen)
	chunk := func(i int) graph.Batch { return stream[i*chunkLen : (i+1)*chunkLen] }
	for _, tc := range []struct {
		name       string
		quarantine map[string]bool
	}{
		{"sssp", map[string]bool{"sssp": true}},
		{"every class", map[string]bool{"sssp": true, "cc": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc := NewService()
			d, err := OpenDurable(svc, dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			armed := new(atomic.Bool)
			for _, m := range []Serveable{SSSP(sssp.NewInc(base.Clone(), 0)), CC(cc.NewInc(base.Clone()))} {
				if tc.quarantine[m.Algo()] {
					m = armedPanic{m, armed}
				}
				if _, err := svc.Host(m, Options{MaxBatch: 16}); err != nil {
					t.Fatal(err)
				}
			}
			post := func(i int) {
				if err := d.Ingest(nil, "", chunk(i), trace.TraceID{}, true); err != nil {
					t.Fatal(err)
				}
			}
			post(0)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			post(1)
			armed.Store(false)
			post(2)
			for _, h := range svc.Hosts() {
				if st := h.Stats(); st.Degraded != tc.quarantine[h.Algo()] {
					t.Fatalf("%s: degraded %v, want %v", h.Algo(), st.Degraded, tc.quarantine[h.Algo()])
				}
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("checkpoint with %v quarantined: %v", tc.quarantine, err)
			}
			if got := d.ckptErrors.Value(); got != 0 {
				t.Fatalf("incgraph_checkpoint_errors_total = %v, want 0", got)
			}
			if segs, err := wal.Segments(dir); err != nil || len(d.kept) != keepCheckpoints || segs[0] != d.kept[0].replayFrom {
				t.Fatalf("segments %v (%v) after checkpoints replaying from %v: the first checkpoint's prefix is not pruned", segs, err, d.kept)
			}
			post(3)
			svc.Close()
			d.Close()

			og := base.Clone()
			for i := 0; i < 4; i++ {
				og.Apply(chunk(i).Net(og.Directed()))
			}
			targets, rec, _ := recoverAlgos(t, base, dir)
			if want := uint64(3 * chunkLen); rec.CheckpointEpoch != want {
				t.Errorf("recovered from epoch %d, want %d", rec.CheckpointEpoch, want)
			}
			if div := VerifyRecovered(targets, nil); len(div) != 0 {
				t.Errorf("recovered state diverged from batch recompute: %v", div)
			}
			oracle := map[string]Serveable{"sssp": SSSP(sssp.NewInc(og.Clone(), 0)), "cc": CC(cc.NewInc(og.Clone()))}
			for algo, m := range targets {
				if got, want := m.Graph().NumEdges(), og.NumEdges(); got != want {
					t.Errorf("%s: recovered graph has %d edges, the stream's has %d", algo, got, want)
				}
				if !snapshotEqual(m.Snapshot(), oracle[algo].Snapshot()) {
					t.Errorf("%s: recovered answer differs from a recompute on the stream's graph", algo)
				}
				if epoch, _ := rec.Base(algo); epoch != uint64(4*chunkLen) {
					t.Errorf("%s: resumes at epoch %d, want %d", algo, epoch, 4*chunkLen)
				}
			}
		})
	}
}

// TestDistinctGraphsTakeEachBatchOnce: hosts may sit on graphs of their
// own — the benchmark harness builds each class on a copy — and then the
// apply loop, and a recovery's replay, advance each distinct graph once
// per batch: sssp and cc share one graph here, lcc has another. Every
// graph ends at one round per batch, and every view at the batch answer.
func TestDistinctGraphsTakeEachBatchOnce(t *testing.T) {
	dir := t.TempDir()
	const chunk, rounds = 30, 8
	stream := makeStream(7, opsNodes, chunk*rounds)
	build := func() (map[string]Serveable, [2]*graph.Graph) {
		shared, own := opsBase(), opsBase()
		ms := map[string]Serveable{
			"sssp": opsBatchRun("sssp", shared),
			"cc":   opsBatchRun("cc", shared),
			"lcc":  opsBatchRun("lcc", own),
		}
		return ms, [2]*graph.Graph{shared, own}
	}
	check := func(when string, ms map[string]Serveable, graphs [2]*graph.Graph, views func(string) any) {
		t.Helper()
		mirror := opsBase()
		mirror.Apply(stream)
		for i, g := range graphs {
			if g.Round() != rounds || g.NumEdges() != mirror.NumEdges() {
				t.Errorf("%s: graph %d at round %d with %d edges, want %d and the mirror's %d", when, i, g.Round(), g.NumEdges(), rounds, mirror.NumEdges())
			}
		}
		for algo := range ms {
			if !snapshotEqual(views(algo), opsBatchRun(algo, mirror.Clone()).Snapshot()) {
				t.Errorf("%s: %s's view differs from the batch answer on the mirror", when, algo)
			}
		}
	}

	svc := NewService()
	ms, graphs := build()
	for _, m := range ms {
		if _, err := svc.Host(m, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); i += chunk {
		if err := d.Ingest(nil, "", stream[i:i+chunk], trace.TraceID{}, true); err != nil {
			t.Fatal(err)
		}
	}
	svc.Hosts()[0].WithState(func(Serveable) error {
		check("served", ms, graphs, func(algo string) any { return svc.Get(algo).View().Data })
		return nil
	})
	svc.Close()
	d.Close()

	rec, err := LoadRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms, graphs = build()
	if n, err := rec.Replay(ms, nil); err != nil || n != rounds {
		t.Fatalf("replayed %d records (%v), want %d", n, err, rounds)
	}
	check("replayed", ms, graphs, func(algo string) any { return ms[algo].Snapshot() })
}
