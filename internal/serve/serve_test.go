package serve

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
)

// soloHost hosts m alone on a new service — a standalone host is a
// service of one — which is closed when the test ends.
func soloHost(t testing.TB, m Serveable, opt Options) (*Service, *Host) {
	t.Helper()
	s := NewService()
	t.Cleanup(s.Close)
	h, err := s.Host(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, h
}

// applyAlone is one round of a class used alone, outside a service: the
// test, its graph's one writer, advances the graph by b, and the class
// repairs for the round.
func applyAlone(m Serveable, b graph.Batch) ApplyResult {
	m.Graph().Advance(b)
	return m.Apply(b)
}

// submit hands b to s untraced and returns once it is accepted.
func submit(s *Service, b graph.Batch) error {
	_, err := s.Submit(b, trace.TraceID{})
	return err
}

// submitWait hands b to s untraced and returns once every host has
// published it.
func submitWait(s *Service, b graph.Batch) error {
	ack, err := s.Submit(b, trace.TraceID{})
	if err == nil {
		<-ack
	}
	return err
}

// makeStream builds a deterministic update stream that deliberately
// contains churn: adjacent insert/delete pairs of the same edge, which
// the host's coalescer must cancel before they reach the maintainer.
func makeStream(seed int64, nodes, total int) graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := make(graph.Batch, 0, total)
	for len(b) < total {
		u := graph.NodeID(rng.Intn(nodes))
		v := graph.NodeID(rng.Intn(nodes))
		if u == v {
			continue
		}
		w := int64(rng.Intn(9) + 1)
		switch rng.Intn(4) {
		case 0: // churn pair
			if len(b)+2 > total {
				continue
			}
			b = append(b,
				graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w},
				graph.Update{Kind: graph.DeleteEdge, From: u, To: v})
		case 1:
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: u, To: v})
		default:
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: u, To: v, W: w})
		}
	}
	return b
}

// TestLoadConcurrentReaders is the subsystem's load test: an ingest
// goroutine streams >1000 updates through a hosted IncSSSP while
// concurrent readers hammer View, keep every view they saw, and encode
// each in both wire forms (racing each other to fill the shared pages'
// encode caches). Every observed view must be the exact answer on some
// applied prefix of the stream — verified after the writer has published
// 300 later epochs on top of the pages those views share (each derived
// from the cached bytes of the page it replaced, while the readers were
// filling those caches), by replaying each observed prefix, recomputing
// with batch Dijkstra and encoding the held view again in both forms.
// Run under -race this also proves readers never touch maintainer state
// and the writer never touches a published page.
func TestLoadConcurrentReaders(t *testing.T) {
	leakCheck(t)
	const (
		nodes   = 3*pageSize + 17 // several pages, the last one ragged
		total   = 1500
		readers = 6
		chunk   = 5
	)
	g := gen.Synthetic(7, nodes, 6, true)
	base := g.Clone()
	stream := makeStream(11, nodes, total)

	s, h := soloHost(t, SSSP(sssp.NewInc(g, 0)), Options{MaxBatch: 64})

	type obs struct {
		epoch uint64
		view  *View
		wire  []byte // the view as the handler wrote it when first seen
	}
	encode := func(v *View) []byte {
		var w viewWriter
		if err := w.view(v, nil); err != nil {
			t.Errorf("encoding view at epoch %d: %v", v.Epoch, err)
		}
		return w.b
	}
	observed := make([][]obs, readers)
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			first := true
			last := uint64(0)
			hasLast := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := h.View()
				if v.Epoch < last {
					t.Errorf("reader %d: view epoch went backwards: %d after %d", r, v.Epoch, last)
					return
				}
				if !hasLast || v.Epoch != last {
					observed[r] = append(observed[r], obs{v.Epoch, v, encode(v)})
					last, hasLast = v.Epoch, true
				}
				if first {
					first = false
					ready.Done()
				}
			}
		}(r)
	}
	// Every reader must have observed at least one view before ingest
	// begins, or a fast ingest can outrun reader goroutine startup.
	ready.Wait()

	for i := 0; i < len(stream); i += chunk {
		end := i + chunk
		if end > len(stream) {
			end = len(stream)
		}
		// One publish per chunk: 300 epochs pile up on the first views held.
		if err := submitWait(s, stream[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	close(stop)
	wg.Wait()

	if v := h.View(); v.Epoch != total {
		t.Fatalf("final epoch %d, want %d", v.Epoch, total)
	}
	st := h.Stats()
	if st.UpdatesApplied != total || st.QueueDepth != 0 {
		t.Fatalf("stats: applied %d depth %d, want %d and 0", st.UpdatesApplied, st.QueueDepth, total)
	}
	if st.UpdatesCoalesced == 0 {
		t.Fatal("coalescer never fired on a churn-heavy stream")
	}
	if st.BatchesApplied != total/chunk {
		t.Fatalf("%d batches, want one per waited submission (%d)", st.BatchesApplied, total/chunk)
	}
	if st.EntriesSpliced == 0 {
		t.Fatal("no replaced page inherited cached bytes although every view was read")
	}

	// Prefix-consistency: recompute the answer for every distinct
	// observed epoch by replaying the stream prefix and running batch
	// Dijkstra, then check each observation against it.
	epochSet := map[uint64]bool{}
	for r := range observed {
		for _, o := range observed[r] {
			epochSet[o.epoch] = true
		}
	}
	epochs := make([]uint64, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	expect := make(map[uint64][]int64, len(epochs))
	replay := base.Clone()
	cursor := uint64(0)
	for _, e := range epochs {
		replay.Apply(stream[cursor:e])
		cursor = e
		expect[e] = sssp.Dijkstra(replay, 0)
	}
	checked := 0
	for r := range observed {
		for _, o := range observed[r] {
			if !reflect.DeepEqual(o.view.Data.(SSSPView).Dist.Slice(), expect[o.epoch]) {
				t.Fatalf("reader %d: the view held since epoch %d no longer equals the recompute at that prefix", r, o.epoch)
			}
			// What the reader encoded back then, and what the held view
			// encodes to now, are both the encoding of that prefix.
			ref := *o.view
			ref.Data = SSSPView{Dist: pagedOf(expect[o.epoch])}
			want := referenceJSON(t, &ref, nil)
			if now := encode(o.view); !bytes.Equal(o.wire, want) || !bytes.Equal(now, want) {
				t.Fatalf("reader %d: epoch %d encoded differently from json.Marshal on the recompute", r, o.epoch)
			}
			checked++
		}
	}
	if checked == 0 || !epochSet[0] {
		t.Fatalf("checked %d observations; the initial view, with all %d publishes after it, among them: %v", checked, st.BatchesApplied, epochSet[0])
	}
	t.Logf("checked %d observations over %d distinct epochs; coalesced %d of %d updates in %d batches",
		checked, len(epochs), st.UpdatesCoalesced, total, st.BatchesApplied)
}

// A churn pair inside one submission must be cancelled by the coalescer
// and still leave the maintainer's answer exactly right.
func TestCoalescingCancelsChurn(t *testing.T) {
	g := graph.New(4, false)
	g.InsertEdge(0, 1, 1)
	s, h := soloHost(t, CC(cc.NewInc(g)), Options{})
	b := graph.Batch{
		{Kind: graph.InsertEdge, From: 1, To: 2, W: 1},
		{Kind: graph.InsertEdge, From: 2, To: 3, W: 1},
		{Kind: graph.DeleteEdge, From: 2, To: 3},
		{Kind: graph.InsertEdge, From: 1, To: 2, W: 1}, // duplicate
	}
	if err := submitWait(s, b); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.UpdatesCoalesced == 0 {
		t.Fatalf("no updates coalesced: %+v", st)
	}
	if st.BatchesApplied != 1 || st.UpdatesApplied != 4 {
		t.Fatalf("batches %d applied %d, want 1 and 4", st.BatchesApplied, st.UpdatesApplied)
	}
	labels := h.View().Data.(CCView).Labels.Slice()
	want := []int64{0, 0, 0, 3} // {0,1,2} connected, 3 isolated again
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels %v, want %v", labels, want)
	}
}

// TestCloseDrainsAndRejects: Close applies everything accepted before it
// — here 49 submissions queued behind a parked apply loop — and Submit,
// WithState and Host fail afterwards.
func TestCloseDrainsAndRejects(t *testing.T) {
	slow := newSlow(50)
	s, h := soloHost(t, slow, Options{MaxBatch: 8})
	stream := makeStream(3, 50, 200)
	slow.park(t, s)
	for i := 0; i < len(stream); i += 4 {
		if err := submit(s, stream[i:i+4]); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(slow.release)
	<-closed
	if v := h.View(); v.Epoch != uint64(1+len(stream)) {
		t.Fatalf("close did not drain: epoch %d, want %d", v.Epoch, 1+len(stream))
	}
	if err := submit(s, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if err := h.WithState(func(Serveable) error { return nil }); err != ErrClosed {
		t.Fatalf("state job after close = %v, want ErrClosed", err)
	}
	if _, err := s.Host(CC(cc.NewInc(graph.New(50, true))), Options{MaxBatch: 8}); err != ErrClosed {
		t.Fatalf("host after close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestSubmitValidates(t *testing.T) {
	g := graph.New(5, true)
	s, h := soloHost(t, SSSP(sssp.NewInc(g, 0)), Options{})
	if err := submit(s, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 99, W: 1}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if err := submit(s, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if st := h.Stats(); st.UpdatesReceived != 0 {
		t.Fatalf("refused batches counted as received: %d", st.UpdatesReceived)
	}
	if err := submit(NewService(), graph.Batch{}); err == nil {
		t.Fatal("a service with no hosts accepted a batch")
	}
}

// Published views must be immutable: applying more updates must not
// change data already handed to readers.
func TestViewImmutability(t *testing.T) {
	g := graph.New(3, true)
	g.InsertEdge(0, 1, 5)
	s, h := soloHost(t, SSSP(sssp.NewInc(g, 0)), Options{})
	before := h.View()
	snap := before.Data.(SSSPView).Dist.Slice()
	if err := submitWait(s, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Data.(SSSPView).Dist.Slice(), snap) {
		t.Fatal("old view mutated by a later apply")
	}
	if h.View().Epoch != 1 {
		t.Fatalf("epoch %d, want 1", h.View().Epoch)
	}
}
