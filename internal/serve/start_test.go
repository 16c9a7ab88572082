package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// buildFrom turns per-class builders into Start's constructor.
func buildFrom(build map[string]func(*graph.Graph) Serveable) func(string, *graph.Graph) (Serveable, error) {
	return func(algo string, g *graph.Graph) (Serveable, error) { return build[algo](g), nil }
}

// startClosed runs Start over dir for algos with verification left to the
// caller, starting on copies of base without a checkpoint, and returns the
// maintainers it built, keyed by class, once the service is closed — with
// the recovery it started from.
func startClosed(t *testing.T, dir string, base *graph.Graph, build func(string, *graph.Graph) (Serveable, error), algos ...string) (map[string]Serveable, *Recovery) {
	t.Helper()
	targets := map[string]Serveable{}
	svc := NewService()
	defer svc.Close()
	rec, _, err := Start(svc, dir, algos, func(algo string, g *graph.Graph) (Serveable, error) {
		m, err := build(algo, g)
		targets[algo] = m
		return m, err
	}, func() (*graph.Graph, error) {
		if base == nil {
			return nil, errors.New("no checkpoint to start from")
		}
		return base.Clone(), nil
	}, Options{}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	return targets, rec
}

// TestStart runs the one start sequence over each way a service starts:
// with no directory, from a checkpoint and a WAL tail, with a class the
// checkpoint does not name, with a class quarantined at the cut, as a
// replica, and with verification off. Every class must answer for the
// graph the stream built up to the epoch it is hosted at — its siblings'
// — /stats must report the recovery's stream position, and the five
// startup phases must be on /metrics.
func TestStart(t *testing.T) {
	const nodes, chunkLen = 60, 24
	base := gen.Synthetic(11, nodes, 3, false)
	stream := makeStream(43, nodes, 3*chunkLen)
	chunk := func(i int) graph.Batch { return stream[i*chunkLen : (i+1)*chunkLen] }
	// graphAt is the stream's graph at each epoch a row hosts at.
	graphAt := map[uint64]*graph.Graph{0: base}
	g := base.Clone()
	for i := 0; i < 3; i++ {
		g.Apply(chunk(i).Net(false))
		graphAt[uint64((i+1)*chunkLen)] = g.Clone()
	}
	// write leaves a directory as a service of sssp and cc that took two
	// chunks, a checkpoint and a third chunk dies: quarantined's apply and
	// recompute panic on the second chunk, so it is quarantined at the cut.
	write := func(quarantined string) string {
		dir := t.TempDir()
		svc := NewService()
		armed := new(atomic.Bool)
		_, _, err := Start(svc, dir, []string{"sssp", "cc"}, func(algo string, g *graph.Graph) (Serveable, error) {
			m, err := opsBuild(algo, g)
			if algo == quarantined {
				m = armedPanic{m, armed}
			}
			return m, err
		}, func() (*graph.Graph, error) { return base.Clone(), nil }, Options{}, false, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			armed.Store(i == 1)
			if err := d.Ingest(nil, "", chunk(i), trace.TraceID{}, true); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		svc.Close()
		d.Close()
		return dir
	}

	for _, tc := range []struct {
		name string
		// dir says whether the service starts on a directory a service
		// wrote, and quarantined which class it had quarantined.
		dir             bool
		quarantined     string
		algos           []string
		replica, verify bool
		epoch           uint64 // where every class is hosted
	}{
		{"no directory", false, "", []string{"sssp", "cc"}, false, true, 0},
		{"checkpoint and tail", true, "", []string{"sssp", "cc"}, false, true, 3 * chunkLen},
		{"class added since the checkpoint", true, "", []string{"sssp", "cc", "dfs"}, false, true, 3 * chunkLen},
		{"class quarantined at the cut", true, "cc", []string{"sssp", "cc"}, false, true, 3 * chunkLen},
		{"replica", true, "", []string{"sssp", "cc", "dfs"}, true, true, 2 * chunkLen},
		{"verification off", true, "", []string{"sssp", "cc"}, false, false, 3 * chunkLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, reads := "", 0
			if tc.dir {
				dir = write(tc.quarantined)
			}
			svc := NewService()
			defer svc.Close()
			rec, st, err := Start(svc, dir, tc.algos, opsBuild, func() (*graph.Graph, error) {
				reads++
				return base.Clone(), nil
			}, Options{}, tc.replica, tc.verify)
			if err != nil {
				t.Fatal(err)
			}
			if tc.dir && reads != 0 || !tc.dir && reads != 1 {
				t.Errorf("the graph source was read %d times (a start on a checkpoint: %v)", reads, tc.dir)
			}
			if tc.quarantined != "" {
				if ra, ok := rec.Algos[tc.quarantined]; !ok || len(ra.State) > 0 {
					t.Fatalf("the checkpoint holds %s (%v) with %d bytes of state, want it named without state", tc.quarantined, ok, len(ra.State))
				}
			}
			if len(st.Diverged) != 0 || len(st.Build) != len(tc.algos) {
				t.Errorf("diverged %v, %d build times for %d classes", st.Diverged, len(st.Build), len(tc.algos))
			}

			want := graphAt[tc.epoch]
			for _, algo := range tc.algos {
				v := svc.Get(algo).View()
				if v.Epoch != tc.epoch || v.Degraded {
					t.Errorf("%s: hosted at epoch %d (degraded %v), want %d", algo, v.Epoch, v.Degraded, tc.epoch)
				}
				if !snapshotEqual(v.Data, opsBatchRun(algo, want.Clone()).Snapshot()) {
					t.Errorf("%s: view differs from a recompute on the stream's graph at epoch %d", algo, tc.epoch)
				}
			}

			api := svc.Handler()
			get := func(url string) []byte {
				rr := httptest.NewRecorder()
				api.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
				if rr.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d", url, rr.Code)
				}
				return rr.Body.Bytes()
			}
			var stats map[string]Stats
			if err := json.Unmarshal(get("/stats"), &stats); err != nil || len(stats) != len(tc.algos) {
				t.Fatalf("GET /stats: %v, %d classes", err, len(stats))
			}
			epoch, batches := rec.Base("")
			if epoch != tc.epoch || batches != tc.epoch/chunkLen {
				t.Errorf("recovery resumes at epoch %d, batch %d; want %d, %d", epoch, batches, tc.epoch, tc.epoch/chunkLen)
			}
			for algo, s := range stats {
				if s.UpdatesApplied != epoch || s.BatchesApplied != batches {
					t.Errorf("%s: /stats at %d updates, %d batches; the recovery at %d, %d", algo, s.UpdatesApplied, s.BatchesApplied, epoch, batches)
				}
			}

			metrics := string(get("/metrics"))
			var names []string
			for _, p := range st.Phases {
				names = append(names, p.Name)
				if !strings.Contains(metrics, `incgraph_startup_seconds{phase="`+p.Name+`"}`) {
					t.Errorf("no incgraph_startup_seconds for phase %s on /metrics", p.Name)
				}
			}
			if !slices.Equal(names, []string{"graph", "build", "restore", "replay", "verify"}) {
				t.Errorf("phases %v", names)
			}
			replay, verify := st.Phases[3].Took, st.Phases[4].Took
			if skipped := !tc.dir || tc.replica; skipped && replay != 0 {
				t.Errorf("replay took %v with nothing to replay", replay)
			}
			if off := !tc.dir || tc.replica || !tc.verify; off != (verify == 0) {
				t.Errorf("verify took %v (verification on: %v)", verify, !off)
			}
		})
	}
}

// TestStartSharesOneStore runs the six classes through each way Start
// starts a service — cold, from a checkpoint and a WAL tail, with a class
// added since the checkpoint, with a class quarantined at the cut, as a
// replica — and then through a heal and a Host.Verify. After each, every
// host's maintainer holds the same *graph.Graph and reads the same
// *graph.Flat, and every view equals the batch answer on a mirror.
func TestStartSharesOneStore(t *testing.T) {
	const chunkLen = 40
	stream := makeStream(61, opsNodes, 4*chunkLen)
	chunk := func(i int) graph.Batch { return stream[i*chunkLen : (i+1)*chunkLen] }
	mirrorAt := func(chunks int) *graph.Graph {
		g := opsBase()
		for i := 0; i < chunks; i++ {
			g.Apply(chunk(i).Net(false))
		}
		return g
	}

	// write leaves a directory as a service of algos that took two
	// chunks, a checkpoint and a third chunk dies: quarantined's apply and
	// recompute panic on the second chunk.
	write := func(quarantined string, algos []string) string {
		dir := t.TempDir()
		svc := NewService()
		armed := new(atomic.Bool)
		_, _, err := Start(svc, dir, algos, func(algo string, g *graph.Graph) (Serveable, error) {
			m, err := opsBuild(algo, g)
			if algo == quarantined {
				m = armedPanic{m, armed}
			}
			return m, err
		}, func() (*graph.Graph, error) { return opsBase(), nil }, Options{}, false, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			armed.Store(i == 1)
			if err := d.Ingest(nil, "", chunk(i), trace.TraceID{}, true); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		svc.Close()
		d.Close()
		return dir
	}

	// shared checks that every host reads one graph and one Flat, and
	// answers for the mirror.
	shared := func(t *testing.T, what string, svc *Service, mirror *graph.Graph) {
		t.Helper()
		var g *graph.Graph
		var f *graph.Flat
		for _, h := range svc.Hosts() {
			var hg *graph.Graph
			var hf *graph.Flat
			h.WithState(func(m Serveable) error {
				hg, hf = m.Graph(), m.Graph().Flat()
				return nil
			})
			if g == nil {
				g, f = hg, hf
			}
			if hg != g || hf != f || f == nil {
				t.Errorf("%s: %s reads graph %p and Flat %p, %s graph %p and Flat %p", what, h.Algo(), hg, hf, svc.Hosts()[0].Algo(), g, f)
			}
			want := opsBatchRun(h.Algo(), mirror.Clone())
			if v := h.View(); v.Degraded || !snapshotEqual(v.Data, want.Snapshot()) {
				t.Errorf("%s: %s's view (degraded %v) differs from the batch answer on the mirror", what, h.Algo(), v.Degraded)
			}
		}
	}

	noLCC := slices.DeleteFunc(opsAlgos(), func(a string) bool { return a == "lcc" })
	for _, tc := range []struct {
		name    string
		dir     func() string
		replica bool
		chunks  int // the chunks the mirror of a started service holds
	}{
		{"cold", func() string { return "" }, false, 0},
		{"checkpoint and tail", func() string { return write("", opsAlgos()) }, false, 3},
		{"class added since the checkpoint", func() string { return write("", noLCC) }, false, 3},
		{"class quarantined at the cut", func() string { return write("cc", opsAlgos()) }, false, 3},
		{"replica", func() string { return write("", opsAlgos()) }, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService()
			defer svc.Close()
			inj := faults.New()
			if _, _, err := Start(svc, tc.dir(), opsAlgos(), opsBuild, func() (*graph.Graph, error) { return opsBase(), nil },
				Options{BeforeApply: inj.BeforeApply}, tc.replica, true); err != nil {
				t.Fatal(err)
			}
			shared(t, "started", svc, mirrorAt(tc.chunks))

			// bc, the first class by name, panics on the next chunk,
			// which the loop advanced the graph by; sssp verifies itself
			// after it.
			inj.PanicOn("bc", 1)
			if err := submitWait(svc, chunk(tc.chunks)); err != nil {
				t.Fatal(err)
			}
			if st := svc.Get("bc").Stats(); st.Panics != 1 || st.Heals != 1 {
				t.Errorf("bc: %d panics, %d heals; want 1, 1", st.Panics, st.Heals)
			}
			if diverged, err := svc.Get("sssp").Verify(); diverged || err != nil {
				t.Errorf("sssp.Verify: diverged %v, %v", diverged, err)
			}
			shared(t, "healed and verified", svc, mirrorAt(tc.chunks+1))
		})
	}
}

// TestStartHeapOneStore is the memory half of TestStartSharesOneStore:
// the five classes a six-class start holds beyond a one-class start's
// take less live heap between them than one more copy of the graph and
// of its adjacency would.
func TestStartHeapOneStore(t *testing.T) {
	generate := func() *graph.Graph {
		g := gen.PowerLaw(rand.New(rand.NewSource(3)), 8000, 32, false)
		for v := 0; v < g.NumNodes(); v++ {
			g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
		}
		return g
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// held returns the live heap what make returns holds.
	held := func(make func() any) int64 {
		before := liveHeap()
		v := make()
		after := liveHeap()
		runtime.KeepAlive(v)
		return after - before
	}
	start := func(algos []string) any {
		svc := NewService()
		t.Cleanup(svc.Close)
		if _, _, err := Start(svc, "", algos, opsBuild, func() (*graph.Graph, error) { return generate(), nil }, Options{}, false, false); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	copyHeap := held(func() any { g := generate(); return []any{g, graph.NewFlat(g)} })
	one := held(func() any { return start([]string{"sssp"}) })
	six := held(func() any { return start(opsAlgos()) })
	t.Logf("one class %d KB, six classes %d KB, a Graph and a copy of its adjacency %d KB", one>>10, six>>10, copyHeap>>10)
	if six-one >= copyHeap {
		t.Errorf("five more classes hold %d KB, more than the %d KB of a Graph and a copy of its adjacency", (six-one)>>10, copyHeap>>10)
	}
}

// timedClass is a class that adds the time each Recompute takes to *took,
// forwarding the certificate so that verification is unchanged.
type timedClass struct {
	Serveable
	took *time.Duration
}

func (c timedClass) Recompute() {
	t := time.Now()
	c.Serveable.Recompute()
	*c.took += time.Since(t)
}

func (c timedClass) Certify() (has bool, err error) { return c.Serveable.(certifier).Certify() }

// TestStartSideBySide: Start runs the batch runs of the classes a start
// builds, and the checks of a verified recovery, side by side. Through a
// cold start, a start with a class added since the checkpoint, and a start
// whose restored sssp state diverges — six classes, listed out of registry
// order — every class at GOMAXPROCS 1 and 2 holds the same state bytes and
// view JSON, each view is that of a serial NewInc build on the stream's
// graph and each class built by a batch run holds that build's state
// bytes too, and Started reports each class in the list's order: its
// build time covers its own batch run, its check is its class's.
func TestStartSideBySide(t *testing.T) {
	const chunkLen = 40
	algos := []string{"bc", "sssp", "lcc", "cc", "dfs", "sim"}
	stream := makeStream(71, opsNodes, 3*chunkLen)
	chunk := func(i int) graph.Batch { return stream[i*chunkLen : (i+1)*chunkLen] }
	mirror := opsBase()
	for i := 0; i < 3; i++ {
		mirror.Apply(chunk(i).Net(false))
	}
	// write leaves a directory as a service of algos that took the three
	// chunks, with a checkpoint after the first ckpt of them.
	write := func(algos []string, ckpt int) string {
		dir := t.TempDir()
		svc := NewService()
		if _, _, err := Start(svc, dir, algos, opsBuild, func() (*graph.Graph, error) { return opsBase(), nil }, Options{}, false, true); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := d.Ingest(nil, "", chunk(i), trace.TraceID{}, true); err != nil {
				t.Fatal(err)
			}
			if i+1 == ckpt {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		svc.Close()
		d.Close()
		return dir
	}
	lowerDist := func(_ *graph.Graph, st *classState) {
		for v, d := range st.Dist {
			if d > 0 && d < graph.Infinity {
				st.Dist[v]--
				return
			}
		}
		t.Fatal("no finite distance to lower")
	}
	noLCC := slices.DeleteFunc(slices.Clone(algos), func(a string) bool { return a == "lcc" })
	diverging := write(algos, 3)
	corrupt(t, diverging, "sssp", lowerDist)

	certified := map[string]string{"sssp": "certificate", "cc": "certificate"}
	for _, tc := range []struct {
		name string
		dir  string
		// answer is the graph the classes answer for, by how each class is
		// verified, built the classes a batch run builds on that graph, and
		// diverged those verification corrects.
		answer   *graph.Graph
		by       map[string]string
		built    []string
		diverged []string
	}{
		{"cold", "", opsBase(), nil, algos, nil},
		{"class added since the checkpoint", write(noLCC, 2), mirror, certified, []string{"lcc"}, nil},
		{"restored class diverges", diverging, mirror, certified, []string{"sssp"}, []string{"sssp"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// start returns each class's state bytes and view JSON.
			start := func(procs int) (state, view map[string][]byte) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				svc := NewService()
				defer svc.Close()
				took := map[string]*time.Duration{}
				_, st, err := Start(svc, tc.dir, algos, func(algo string, g *graph.Graph) (Serveable, error) {
					m, err := opsBuild(algo, g)
					took[algo] = new(time.Duration)
					return timedClass{m, took[algo]}, err
				}, func() (*graph.Graph, error) { return opsBase(), nil }, Options{}, false, true)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(st.Diverged, tc.diverged) || len(st.Build) != len(algos) || len(st.Verify) != len(algos) {
					t.Fatalf("GOMAXPROCS %d: diverged %v, %d build times and %d checks for %d classes", procs, st.Diverged, len(st.Build), len(st.Verify), len(algos))
				}
				state, view = map[string][]byte{}, map[string][]byte{}
				for i, algo := range algos {
					by := "none"
					if tc.dir != "" {
						by = cmp.Or(tc.by[algo], "recompute")
					}
					if c := st.Verify[i]; c.By != by || c.Diverged != slices.Contains(tc.diverged, algo) {
						t.Errorf("GOMAXPROCS %d: %s checked by %s (diverged %v), want %s", procs, algo, c.By, c.Diverged, by)
					}
					// A batch run at build or by verification.
					ran := *took[algo] > 0
					if ran != (slices.Contains(tc.built, algo) || by == "recompute") || st.Build[i]+st.Verify[i].Took < *took[algo] {
						t.Errorf("GOMAXPROCS %d: %s built in %v and checked in %v, its batch runs took %v", procs, algo, st.Build[i], st.Verify[i].Took, *took[algo])
					}
					h := svc.Get(algo)
					h.WithState(func(m Serveable) error {
						state[algo] = persisted(t, m)
						return nil
					})
					var err error
					if view[algo], err = json.Marshal(h.View().Data); err != nil {
						t.Fatal(err)
					}
				}
				return state, view
			}
			state1, view1 := start(1)
			state2, view2 := start(2)
			for _, algo := range algos {
				want := newIncs[algo](tc.answer.Clone(), opsPattern(), 0)
				wantView, err := json.Marshal(want.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case !bytes.Equal(state1[algo], state2[algo]) || !bytes.Equal(view1[algo], view2[algo]):
					t.Errorf("%s: GOMAXPROCS 1 and 2 hold different classes", algo)
				case !bytes.Equal(view2[algo], wantView):
					t.Errorf("%s: the view is not a serial NewInc build's", algo)
				case slices.Contains(tc.built, algo) && !bytes.Equal(state2[algo], persisted(t, want)):
					t.Errorf("%s: the state is not a serial NewInc build's", algo)
				}
			}
		})
	}
}
