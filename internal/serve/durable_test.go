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
	"strings"
	"sync"
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
	if _, err := svc.Host(SSSP(sssp.NewInc(base.Clone(), 0), 0), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(CC(cc.NewInc(base.Clone())), opt); err != nil {
		t.Fatal(err)
	}
	return svc, d
}

// recoverAlgos reruns the startup recovery against fresh serveables and
// returns them keyed by algo, plus the replayed-record count.
func recoverAlgos(t *testing.T, base *graph.Graph, dir string) (map[string]Serveable, *Recovery, int) {
	t.Helper()
	rec, err := LoadRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	graphFor := func(algo string) *graph.Graph {
		if ra, ok := rec.Algos[algo]; ok {
			return ra.Graph
		}
		return base.Clone()
	}
	targets := map[string]Serveable{
		"sssp": SSSP(sssp.NewInc(graphFor("sssp"), 0), 0),
		"cc":   CC(cc.NewInc(graphFor("cc"))),
	}
	for name, m := range targets {
		if err := rec.Restore(name, m); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
	}
	n, err := rec.Replay(targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return targets, rec, n
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
			oracle = SSSP(sssp.NewInc(og, 0), 0)
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
	oracle := SSSP(sssp.NewInc(og, 0), 0)
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
// apply panics. The host must not crash, must keep sssp unaffected, and
// must heal cc by batch recompute so the final answers match an oracle
// that never saw the poisoned batch applied incrementally.
func TestPanicIsolationHeals(t *testing.T) {
	leakCheck(t)
	const nodes = 60
	base := gen.Synthetic(5, nodes, 4, false)
	inj := faults.New()
	inj.PanicOn("cc", 2)

	h := NewHost(CC(cc.NewInc(base.Clone())), Options{
		MaxBatch: 4, BeforeApply: inj.BeforeApply,
	})
	defer h.Close()

	b1 := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 7, W: 1}}
	b2 := graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 8, W: 1}}
	b3 := graph.Batch{{Kind: graph.InsertEdge, From: 2, To: 9, W: 1}}
	if err := submitWait(h, b1); err != nil {
		t.Fatal(err)
	}
	if err := submitWait(h, b2); err != nil { // poisoned: panics before Apply
		t.Fatal(err)
	}
	if err := submitWait(h, b3); err != nil {
		t.Fatal(err)
	}

	st := h.Stats()
	if st.Panics != 1 || st.Heals != 1 || st.Degraded {
		t.Fatalf("stats after poisoned apply: panics=%d heals=%d degraded=%v", st.Panics, st.Heals, st.Degraded)
	}
	// The poisoned batch panicked before reaching the maintainer, so the
	// healed answer is the oracle over b1+b3 only.
	og := base.Clone()
	og.Apply(b1.Net(og.Directed()))
	og.Apply(b3.Net(og.Directed()))
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
	h := NewHost(&brokenServeable{g: g, good: true}, Options{MaxBatch: 1})
	defer h.Close()

	b := graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 5, W: 1}}
	if err := submitWait(h, b); err != nil { // consumes the one good apply
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // panic → heal panics → quarantined; then drained
		if err := submitWait(h, b); err != nil {
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

// park submits one update and returns once the apply loop is blocked
// inside the maintainer applying it.
func (s *slowServeable) park(t *testing.T, h *Host) {
	t.Helper()
	if err := submit(h, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}); err != nil {
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
	h, err := svc.Host(slow, Options{MaxBatch: 1, Queue: 1})
	if err != nil {
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
	slow.park(t, h)
	for !h.Saturated() {
		if err := submit(h, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 1}}); err != nil {
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

// TestDebugAppliesCap exercises the ?n= cap on GET /debug/applies.
func TestDebugAppliesCap(t *testing.T) {
	base := gen.Synthetic(4, 30, 3, true)
	svc := NewService()
	if _, err := svc.Host(SSSP(sssp.NewInc(base.Clone(), 0), 0), Options{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	h := svc.Get("sssp")
	for i := 0; i < 5; i++ {
		if err := submitWait(h, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: graph.NodeID(10 + i), W: 1}}); err != nil {
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
// nothing ingested since the last one has the same epoch sum, so the same
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

	// Two classes: the epoch sum counts every update twice.
	newest := filepath.Join(dir, wal.CheckpointName(2*chunks*chunkLen))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	targets, rec, replayed := recoverAlgos(t, base, dir)
	if want := uint64(2 * 20 * chunkLen); rec.CheckpointEpoch != want {
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
		oracle := map[string]Serveable{"sssp": SSSP(sssp.NewInc(og, 0), 0), "cc": CC(cc.NewInc(og))}[algo]
		if !snapshotEqual(m.Snapshot(), oracle.Snapshot()) {
			t.Fatalf("%s: recovered answer differs from the acknowledged stream's", algo)
		}
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
