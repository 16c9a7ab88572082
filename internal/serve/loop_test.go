package serve

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
	"incgraph/internal/wal"
)

// The tests below pin what one apply loop per service guarantees: every
// host takes the same batches, a host that could not take the same stream
// is refused, and Close cannot leave a batch on some hosts and not others.

// applied is the part of an ApplyTrace the loop decides, as opposed to
// what the class's maintainer reports.
type applied struct {
	batch    uint64
	raw, net int
	reason   string
}

func appliedOf(h *Host) []applied {
	var out []applied
	for _, tr := range h.RecentApplies() {
		out = append(out, applied{tr.Batch, tr.RawUpdates, tr.NetUpdates, tr.FlushReason})
	}
	return out
}

// TestLoopSameBatchesOnEveryHost: with the loop parked inside one slow
// class, un-waited POSTs queue up and are cut into batches by MaxBatch and
// by the queue draining. Every host must show the same batches — ordinal,
// raw and net size, and what closed each — because the loop cut and netted
// them once for all.
func TestLoopSameBatchesOnEveryHost(t *testing.T) {
	leakCheck(t)
	const nodes = 50
	slow := newSlow(nodes)
	svc, _ := soloHost(t, slow, Options{MaxBatch: 16, MaxWait: time.Hour})
	for _, m := range []Serveable{SSSP(sssp.NewInc(graph.New(nodes, true), 0)), CC(cc.NewInc(graph.New(nodes, true)))} {
		if _, err := svc.Host(m, Options{MaxBatch: 16, MaxWait: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	api := svc.Handler()
	slow.park(t, svc)
	stream := makeStream(5, nodes, 300)
	for i := 0; i < len(stream); i += 5 {
		var body strings.Builder
		if err := graph.WriteBatch(&body, stream[i:i+5]); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body.String())))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST: %d %s", rec.Code, rec.Body)
		}
	}
	close(slow.release)
	if err := submitWait(svc, nil); err != nil {
		t.Fatal(err)
	}
	hosts := svc.Hosts()
	want := appliedOf(hosts[0])
	if len(want) < 3 || !slices.ContainsFunc(want, func(a applied) bool { return a.reason == "full" }) ||
		!slices.ContainsFunc(want, func(a applied) bool { return a.raw != a.net }) {
		t.Fatalf("%s: applies %+v; want several, one closed at MaxBatch, one that netting shrank", hosts[0].Algo(), want)
	}
	for _, h := range hosts[1:] {
		if got := appliedOf(h); !slices.Equal(got, want) {
			t.Errorf("%s applied\n%+v\n%s applied\n%+v", h.Algo(), got, hosts[0].Algo(), want)
		}
	}
	for _, h := range hosts {
		if v := h.View(); v.Epoch != uint64(1+len(stream)) {
			t.Errorf("%s at epoch %d, want %d", h.Algo(), v.Epoch, 1+len(stream))
		}
	}
}

// TestServiceHostRefusals: one loop nets one stream for every host, so a
// host that would read it differently — another node count, the other
// directedness — or batch it differently, or start it at another
// position, is refused, naming the field; so is a host after the first
// Submit, which would miss the stream's prefix.
// A refused host is not registered.
func TestServiceHostRefusals(t *testing.T) {
	const nodes = 10
	opt := Options{MaxBatch: 8}
	svc, _ := soloHost(t, SSSP(sssp.NewInc(graph.New(nodes, true), 0)), opt)
	cases := []struct {
		g     *graph.Graph
		opt   Options
		field string
	}{
		{graph.New(nodes+1, true), opt, "node count"},
		{graph.New(nodes, false), opt, "directed"},
		{graph.New(nodes, true), Options{}, "MaxBatch"},
		{graph.New(nodes, true), Options{MaxBatch: 8, MaxWait: time.Second}, "MaxWait"},
		{graph.New(nodes, true), Options{MaxBatch: 8, Queue: 7}, "Queue"},
		// One stream, one position: a host recovered elsewhere is refused.
		{graph.New(nodes, true), Options{MaxBatch: 8, BaseEpoch: 7}, "BaseEpoch"},
		{graph.New(nodes, true), Options{MaxBatch: 8, BaseBatches: 7}, "BaseBatches"},
	}
	for _, tc := range cases {
		if _, err := svc.Host(CC(cc.NewInc(tc.g)), tc.opt); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("host differing in %s: err = %v, want a refusal naming it", tc.field, err)
		}
	}
	if _, err := svc.Host(CC(cc.NewInc(graph.New(nodes, true))), opt); err != nil {
		t.Fatalf("a host agreeing in every field: %v", err)
	}
	if err := submitWait(svc, graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(DFS(dfs.NewInc(graph.New(nodes, true))), opt); err == nil || !strings.Contains(err.Error(), "Submit") {
		t.Errorf("host after the first Submit: err = %v, want a refusal", err)
	}
	if hosts := svc.Hosts(); len(hosts) != 2 || svc.Get("dfs") != nil {
		t.Errorf("hosts %d after the refusals, want sssp and cc", len(hosts))
	}
}

// TestServiceCloseDuringBroadcast: POSTs race Service.Close, without and
// with a journal. A POST is accepted whole (200, and every host applies
// it) or refused whole (503, and no host does, and the WAL never took it):
// after the drain every host stands at one epoch, the sum of the accepted
// POSTs' sizes, and so does the WAL.
func TestServiceCloseDuringBroadcast(t *testing.T) {
	for _, journal := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "journal"}[journal], func(t *testing.T) {
			testCloseDuringBroadcast(t, journal)
		})
	}
}

func testCloseDuringBroadcast(t *testing.T, journal bool) {
	leakCheck(t)
	const nodes, posters = 40, 4
	svc := NewService()
	for _, m := range []Serveable{
		SSSP(sssp.NewInc(graph.New(nodes, true), 0)),
		CC(cc.NewInc(graph.New(nodes, true))),
		DFS(dfs.NewInc(graph.New(nodes, true))),
	} {
		if _, err := svc.Host(m, Options{MaxBatch: 8}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	var dur *Durable
	if journal {
		var err error
		if dur, err = OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}}); err != nil {
			t.Fatal(err)
		}
	}
	api := svc.Handler()
	var accepted, oks atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				b := makeStream(int64(p*1000+i), nodes, 1+(p+i)%5)
				var body strings.Builder
				if err := graph.WriteBatch(&body, b); err != nil {
					t.Error(err)
					return
				}
				url := "/update"
				if i%2 == 0 {
					url += "?wait=1"
				}
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body.String())))
				switch rec.Code {
				case http.StatusOK:
					accepted.Add(uint64(len(b)))
					oks.Add(1)
				case http.StatusServiceUnavailable:
					return
				default:
					t.Errorf("POST: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(p)
	}
	for oks.Load() < 40 {
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	wg.Wait()
	for _, h := range svc.Hosts() {
		v, st := h.View(), h.Stats()
		if v.Epoch != accepted.Load() || st.UpdatesReceived != accepted.Load() || v.Degraded {
			t.Errorf("%s: epoch %d, %d received (degraded %v); %d updates were accepted", h.Algo(), v.Epoch, st.UpdatesReceived, v.Degraded, accepted.Load())
		}
	}
	if journal {
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		var logged uint64
		if _, err := wal.Replay(dir, 0, func(r wal.Record) error {
			logged += uint64(len(r.Batch))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if logged != accepted.Load() {
			t.Errorf("the WAL holds %d updates; %d were accepted", logged, accepted.Load())
		}
	}
	t.Logf("%d POSTs accepted before the close, %d updates", oks.Load(), accepted.Load())
}
