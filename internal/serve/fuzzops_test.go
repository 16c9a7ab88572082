package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
	"incgraph/internal/wal"
)

// FuzzOps fuzzes operation sequences through the real stack: a durable
// six-class service behind its HTTP handler, driven by a program of
// 4-byte ops (opsRig.run), with Theorem 1 as the oracle after every step —
// each published view equals the batch answer on a mirror graph that took
// the same accepted updates, and the bytes served are encoding/json's of
// that view, and sssp's and cc's certificates hold — and every host's
// /stats reports the service's one account of the stream, at the mirror's
// count of accepted updates. The classes are the registry's. One op arms an
// injected panic in a class's next apply, before or after its graph takes
// the batch, which the host must heal without losing the batch or applying
// it twice; another has a host verify itself against a recompute in place;
// another arms a class so that its apply and its heal's recompute both
// panic, which quarantines it on its last good view until a recovery
// rebuilds it — from the cut a checkpoint took of a healthy class's graph.
// Every start, the first and each recovery's, is Start. Updates are drawn
// from a boundary dictionary (opsBatch), so the fuzzer spends its mutations
// on the order of operations, not on finding the interesting edges.

// opsNodes gives every per-node vector two pages, the second ragged, so
// the ranges at 255/256/257 straddle a page boundary.
const opsNodes = pageSize + 44

// opsMaxSteps bounds one program; a longer input's tail is ignored.
const opsMaxSteps = 48

// The dictionary's node ids — both ends of the id space, both sides of the
// page boundary — its weights, and the bounds a ?range= is drawn from (the
// last is past |V|: a 400).
var (
	opsIDs     = []int64{0, 1, 2, 3, 5, pageSize - 2, pageSize - 1, pageSize, pageSize + 1, opsNodes - 2, opsNodes - 1}
	opsWeights = []int64{0, 1, 7, graph.Infinity - 1}
	opsBounds  = []int{0, 1, pageSize - 1, pageSize, pageSize + 1, opsNodes - 1, opsNodes, opsNodes + 1}
)

// opsAlgos lists the registry's names, in its order.
func opsAlgos() []string {
	var algos []string
	for _, c := range Classes {
		algos = append(algos, c.Name)
	}
	return algos
}

// opsBuild is Start's constructor for the rig: the registry's class algo,
// unrun, on g, with source 0 and opsPattern.
func opsBuild(algo string, g *graph.Graph) (Serveable, error) {
	c, ok := LookupClass(algo)
	if !ok {
		return nil, fmt.Errorf("no class %q", algo)
	}
	return c.New(g, Params{Pattern: opsPattern()})
}

// opsBatchRun is class algo built by its batch run over g: the answer a
// served view is held to.
func opsBatchRun(algo string, g *graph.Graph) Serveable {
	m, err := opsBuild(algo, g)
	if err != nil {
		panic(err)
	}
	m.Recompute()
	return m
}

// opsMaintainer is a class as the rig hosts it: an armedPanic, which the
// quarantine op arms, that forwards the adapter's extensions, so its host
// keeps the engine spans, the check its written lists and a recovery the
// sssp and cc certificates.
type opsMaintainer struct{ armedPanic }

func (m opsMaintainer) Written() []int32 {
	return m.Serveable.(interface{ Written() []int32 }).Written()
}
func (m opsMaintainer) SetTracer(t fixpoint.Tracer)    { m.Serveable.(tracerSetter).SetTracer(t) }
func (m opsMaintainer) Certify() (has bool, err error) { return m.Serveable.(certifier).Certify() }

// opsBase is the graph every program starts from: undirected (LCC and BC
// need that), labeled for sim, sparse enough that single edges matter.
func opsBase() *graph.Graph {
	g := graph.New(opsNodes, false)
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < opsNodes; v++ {
		g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
	}
	for i := 0; i < opsNodes; i++ {
		g.InsertEdge(graph.NodeID(rng.Intn(opsNodes)), graph.NodeID(rng.Intn(opsNodes)), int64(1+rng.Intn(8)))
	}
	return g
}

func opsPattern() *graph.Graph {
	q := graph.New(3, true)
	q.SetLabel(0, 'a')
	q.SetLabel(1, 'b')
	q.SetLabel(2, 'c')
	q.InsertEdge(0, 1, 1)
	q.InsertEdge(1, 2, 1)
	q.InsertEdge(2, 0, 1) // cyclic: insertions need the timestamps (Example 6)
	return q
}

// opsUpd is one line of a POST body, ids as the text carries them — wider
// than NodeID, which is the point of the last two dictionary entries.
type opsUpd struct {
	del     bool
	u, v, w int64
}

// opsBatch is the boundary dictionary: entry sel over the nodes u, v, t
// and weight w. reject says the gate must answer 400 and apply nothing.
func opsBatch(sel byte, u, v, t, w int64) (ups []opsUpd, reject bool) {
	ins := func(a, b int64) opsUpd { return opsUpd{u: a, v: b, w: w} }
	del := func(a, b int64) opsUpd { return opsUpd{del: true, u: a, v: b} }
	switch sel % 15 {
	case 0:
		return []opsUpd{ins(u, v)}, false
	case 1:
		return []opsUpd{del(u, v)}, false
	case 2: // self-loop: accepted, skipped by every graph
		return []opsUpd{ins(u, u)}, false
	case 3: // duplicate insert, the second at another weight
		return []opsUpd{ins(u, v), {u: u, v: v, w: (w + 1) % 9}}, false
	case 4: // whatever the graph held, the second delete is of an absent edge
		return []opsUpd{del(u, v), del(v, u)}, false
	case 5: // delete then reinsert in one batch: raw and netted batches differ
		return []opsUpd{del(u, v), ins(u, v)}, false
	case 6: // all churn
		return []opsUpd{ins(u, v), del(u, v), ins(v, u), del(v, u)}, false
	case 7: // two edges of a triangle
		return []opsUpd{ins(u, v), ins(v, t)}, false
	case 8: // all three
		return []opsUpd{ins(u, v), ins(v, t), ins(t, u)}, false
	case 9:
		return []opsUpd{del(u, v), del(v, t), del(t, u)}, false
	case 10:
		return nil, false
	case 11: // the last node
		return []opsUpd{ins(u, opsNodes-1)}, false
	case 12: // one past it
		return []opsUpd{ins(u, opsNodes)}, true
	case 13: // 2³¹: NodeID(…) of it is negative
		return []opsUpd{ins(1<<31, u)}, true
	default: // 2³² and 2³² + 5: NodeID(…) of them are nodes 0 and 5
		return []opsUpd{ins(1<<32, 1<<32+5)}, true
	}
}

// opsRig is one program's system under test and its oracle.
type opsRig struct {
	t      *testing.T
	dir    string
	mirror *graph.Graph // opsBase ⊕ every accepted update, in order
	epoch  uint64       // raw updates accepted so far
	// applies counts the batches applied since the program started, which
	// is every class's apply ordinal: each non-empty accepted POST is one
	// batch (the check after it flushes the loop), it reaches every class,
	// and a recovery's replay bypasses BeforeApply.
	applies int64
	// rounds is the round the classes' one graph must be at: the records
	// the last start replayed, then one per batch that reached a class not
	// quarantined before it, however many classes panicked on it.
	rounds uint64
	svc    *Service
	dur    *Durable
	api    http.Handler
	// inj poisons applies on the panic op; it is every host's BeforeApply,
	// across recoveries. midRepair says the armed panic strikes after the
	// shared graph took the batch's round (panicMidRepair), not before the
	// class took it.
	inj       *faults.Injector
	midRepair atomic.Bool
	// The rest is per class, and dropped at a recovery, which rebuilds the
	// maintainers. built is the maintainer, armed makes its apply and
	// recompute panic (the quarantine op), stale is what a quarantined
	// class still answers for, and prev is what the last check saw
	// published, at which batch count and after how many heals.
	built map[string]Serveable
	armed map[string]*atomic.Bool
	stale map[string]opsStale
	prev  map[string]opsSeen
}

type opsSeen struct {
	batches, heals uint64
	vecs           [][]int64
}

// opsStale is a quarantined class's last good view: the epoch it is at and
// the mirror graph then.
type opsStale struct {
	epoch uint64
	g     *graph.Graph
}

// quarantine notes that an armed class is quarantined on the view it
// published at the current epoch, unless it already was.
func (r *opsRig) quarantine(algo string) {
	if _, ok := r.stale[algo]; !ok {
		r.stale[algo] = opsStale{r.epoch, r.mirror.Clone()}
	}
}

// boot is the daemon's start-up, Start: load the newest checkpoint,
// restore, replay the WAL tail, verify against a recompute (no divergence
// allowed), host the six classes where the durable prefix left off.
func (r *opsRig) boot() {
	t := r.t
	r.svc = NewService()
	r.built, r.armed = map[string]Serveable{}, map[string]*atomic.Bool{}
	r.stale, r.prev = map[string]opsStale{}, map[string]opsSeen{}
	hook := func(algo string, b graph.Batch) {
		if r.midRepair.Load() {
			panicMidRepair(func() *Host { return r.svc.Get(algo) }, r.inj.BeforeApply)(algo, b)
		} else {
			r.inj.BeforeApply(algo, b)
		}
	}
	rec, st, err := Start(r.svc, r.dir, opsAlgos(), func(algo string, g *graph.Graph) (Serveable, error) {
		m, err := opsBuild(algo, g)
		r.armed[algo] = new(atomic.Bool)
		r.built[algo] = opsMaintainer{armedPanic{m, r.armed[algo]}}
		return r.built[algo], err
	}, func() (*graph.Graph, error) { return opsBase(), nil }, Options{BeforeApply: hook}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Diverged) != 0 {
		t.Fatalf("recovered state diverged from batch recompute: %v", st.Diverged)
	}
	r.rounds = uint64(rec.Replayed)
	if r.dur, err = OpenDurable(r.svc, r.dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}}); err != nil {
		t.Fatal(err)
	}
	r.api = r.svc.Handler()
}

func (r *opsRig) shutdown() {
	r.svc.Close()
	r.dur.Close()
}

func (r *opsRig) do(method, url, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.api.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec
}

// get fetches url, which must answer the view v cut to rng: 200, a
// Content-Length, and encoding/json's bytes of the view's plain mirror.
func (r *opsRig) get(url string, v *View, rng *[2]int) {
	rec := r.do(http.MethodGet, url, "")
	want := referenceJSON(r.t, v, rng)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) || !bytes.Equal(rec.Body.Bytes(), want) {
		r.t.Fatalf("GET %s: status %d, Content-Length %q, body\n%s\nwant %d bytes\n%s", url, rec.Code, rec.Header().Get("Content-Length"), rec.Body, len(want), want)
	}
}

// post sends one dictionary batch and, if the gate must accept it, applies
// it to the mirror.
func (r *opsRig) post(wait bool, arg [3]byte) {
	u, v := opsIDs[int(arg[1])%len(opsIDs)], opsIDs[int(arg[2])%len(opsIDs)]
	t := opsIDs[(int(arg[1])+int(arg[2])+1)%len(opsIDs)]
	ups, reject := opsBatch(arg[0], u, v, t, opsWeights[int(arg[0])/15%len(opsWeights)])
	var body strings.Builder
	var batch graph.Batch
	for _, up := range ups {
		kind := graph.InsertEdge
		if up.del {
			kind = graph.DeleteEdge
			fmt.Fprintf(&body, "- %d %d\n", up.u, up.v)
		} else {
			fmt.Fprintf(&body, "+ %d %d %d\n", up.u, up.v, up.w)
		}
		if !reject {
			batch = append(batch, graph.Update{Kind: kind, From: graph.NodeID(up.u), To: graph.NodeID(up.v), W: up.w})
		}
	}
	url := "/update"
	if wait {
		url += "?wait=1"
	}
	rec := r.do(http.MethodPost, url, body.String())
	if reject {
		if rec.Code != http.StatusBadRequest {
			r.t.Fatalf("POST %q: status %d %s, want 400", body.String(), rec.Code, rec.Body)
		}
		return
	}
	var res UpdateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil || res.Accepted != len(batch) || res.Applied != wait {
		r.t.Fatalf("POST %s %q: status %d %s", url, body.String(), rec.Code, rec.Body)
	}
	if len(batch) > 0 {
		r.applies++
		if len(r.stale) < len(Classes) {
			r.rounds++
		}
		for algo, armed := range r.armed {
			if armed.Load() {
				r.quarantine(algo)
			}
		}
	}
	r.mirror.Apply(batch)
	r.epoch += uint64(len(batch))
}

// published flattens what a class publishes to vectors indexed the way
// its maintainer's written list is: distances, labels, sim's match bits at
// v·|V_Q| + u, or the per-node vectors of dfs, lcc (γ is a function of the
// two) and bc.
func published(data any) [][]int64 {
	switch d := data.(type) {
	case SSSPView:
		return [][]int64{d.Dist.Slice()}
	case CCView:
		return [][]int64{d.Labels.Slice()}
	case SimView:
		bits := make([]int64, opsNodes*d.NQ)
		for u, m := range d.Matches {
			for _, v := range m.Slice() {
				bits[int(v)*d.NQ+u] = 1
			}
		}
		return [][]int64{bits}
	case DFSView:
		return [][]int64{widen(d.First), widen(d.Last), widen(d.Parent)}
	case LCCView:
		return [][]int64{widen(d.Deg), d.Tri.Slice()}
	case BCView:
		flags := make([]int64, d.Articulation.Len())
		for i, a := range d.Articulation.Slice() {
			if a {
				flags[i] = 1
			}
		}
		return [][]int64{flags}
	}
	return nil
}

func widen[T int32 | graph.NodeID](p Paged[T]) []int64 {
	out := make([]int64, 0, p.Len())
	for _, x := range p.Slice() {
		out = append(out, int64(x))
	}
	return out
}

// check is the oracle, run after every step.
func (r *opsRig) check(step int) {
	t := r.t
	for _, c := range Classes {
		h := r.svc.Get(c.Name)
		// Through the apply loop: every accepted submission is applied
		// first, and the maintainer may be read.
		var written []int32
		if err := h.WithState(func(m Serveable) error {
			written = slices.Clone(m.(interface{ Written() []int32 }).Written())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		v, st := h.View(), h.Stats()
		if s, ok := r.stale[c.Name]; ok {
			// Quarantined: its last good view, degraded, until a recovery.
			if v.Epoch != s.epoch || !v.Degraded || !snapshotEqual(v.Data, opsBatchRun(c.Name, s.g.Clone()).Snapshot()) {
				t.Fatalf("step %d %s: quarantined at epoch %d, serves epoch %d (degraded %v)", step, c.Name, s.epoch, v.Epoch, v.Degraded)
			}
			r.get("/query/"+c.Name, v, nil)
			delete(r.prev, c.Name)
			continue
		}
		if v.Epoch != r.epoch || v.Degraded || st.Panics != st.Heals {
			t.Fatalf("step %d %s: view at epoch %d (degraded %v, %d panics, %d heals), %d updates accepted", step, c.Name, v.Epoch, v.Degraded, st.Panics, st.Heals, r.epoch)
		}
		// The certificates hold after every op: sssp's (sssp.Certify) and
		// cc's order <_C (fixpoint.CheckOrder), each without a batch run.
		if err := h.WithState(func(m Serveable) error {
			_, err := m.(certifier).Certify()
			return err
		}); err != nil {
			t.Fatalf("step %d %s: certificate: %v", step, c.Name, err)
		}
		if want := opsBatchRun(c.Name, r.mirror.Clone()).Snapshot(); !snapshotEqual(v.Data, want) {
			got, _ := json.Marshal(v.Data)
			exp, _ := json.Marshal(want)
			t.Fatalf("step %d %s: view differs from the batch answer on the mirror graph: %s", step, c.Name, firstDiff(got, exp, exp))
		}
		r.get("/query/"+c.Name, v, nil)

		// A heal recomputes: what it changed is in no written list.
		cur := published(v.Data)
		if was, ok := r.prev[c.Name]; ok && v.Batches-was.batches == 1 && st.Heals == was.heals {
			for k, vec := range cur {
				for i := range vec {
					if vec[i] != was.vecs[k][i] && !slices.Contains(written, int32(i)) {
						t.Fatalf("step %d %s: published entry %d of vector %d went %d → %d and is not in Written() %v", step, c.Name, i, k, was.vecs[k][i], vec[i], written)
					}
				}
			}
		}
		r.prev[c.Name] = opsSeen{v.Batches, st.Heals, cur}
	}

	// The classes share one graph, which took each batch once.
	var shared *graph.Graph
	for _, h := range r.svc.Hosts() {
		var g *graph.Graph
		var round uint64
		if err := h.WithState(func(m Serveable) error {
			g, round = m.Graph(), m.Graph().Round()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = g
		}
		if g != shared || round != r.rounds {
			t.Fatalf("step %d %s: graph %p at round %d, the first class's %p, %d rounds taken", step, h.Algo(), g, round, shared, r.rounds)
		}
	}

	// The stream is the service's: every host reports one account of it,
	// which has applied every accepted update, across recoveries too.
	rec := r.do(http.MethodGet, "/stats", "")
	var stats map[string]Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); rec.Code != http.StatusOK || err != nil || len(stats) != len(Classes) {
		t.Fatalf("step %d: GET /stats: status %d %v %s", step, rec.Code, err, rec.Body)
	}
	stream := func(st Stats) [5]uint64 {
		return [5]uint64{st.UpdatesReceived, st.UpdatesApplied, st.UpdatesCoalesced, st.BatchesApplied, st.QueueDepth}
	}
	first := stats[Classes[0].Name]
	if first.UpdatesApplied != r.epoch || first.QueueDepth != 0 {
		t.Fatalf("step %d: /stats applied %d with %d queued, %d updates accepted", step, first.UpdatesApplied, first.QueueDepth, r.epoch)
	}
	for algo, st := range stats {
		if stream(st) != stream(first) {
			t.Fatalf("step %d: %s's stream fields %v differ from %s's %v", step, algo, stream(st), Classes[0].Name, stream(first))
		}
	}
}

// run interprets prog, four bytes an op: the op and three arguments.
func (r *opsRig) run(prog []byte) {
	for step := 0; len(prog) > 0 && step < opsMaxSteps; step++ {
		var arg [3]byte
		op := prog[0]
		prog = prog[1+copy(arg[:], prog[1:]):]
		switch op % 11 {
		case 0, 1, 2:
			r.post(true, arg)
		case 3:
			r.post(false, arg)
		case 4: // a ranged read, ?compact=1 (an unread parameter) on every other one
			c := Classes[int(arg[0])%len(Classes)]
			lo, hi := opsBounds[int(arg[1])%len(opsBounds)], opsBounds[int(arg[2])%len(opsBounds)]
			lo, hi = min(lo, hi), max(lo, hi)
			url := fmt.Sprintf("/query/%s?range=%d:%d", c.Name, lo, hi)
			if arg[0]&0x80 != 0 {
				url += "&compact=1"
			}
			if hi > opsNodes {
				if rec := r.do(http.MethodGet, url, ""); rec.Code != http.StatusBadRequest {
					r.t.Fatalf("GET %s: status %d, want 400", url, rec.Code)
				}
				break
			}
			// Nothing is in flight: the last step's check went through every apply loop.
			r.get(url, r.svc.Get(c.Name).View(), &[2]int{lo, hi})
		case 5: // compact the classes' one Flat where it stands
			if err := r.svc.Hosts()[0].WithState(func(m Serveable) error {
				m.Graph().Flat().Compact(m.Graph())
				return nil
			}); err != nil {
				r.t.Fatal(err)
			}
		case 6: // refused only with every class quarantined: there is no graph to cut
			if err := r.dur.Checkpoint(); (err != nil) != (len(r.stale) == len(Classes)) {
				r.t.Fatalf("step %d: checkpoint with %d classes quarantined: %v", step, len(r.stale), err)
			}
		case 7: // stop without a checkpoint, start from what is on disk
			r.shutdown()
			r.boot()
		case 8: // one class's next apply panics — or every class's, with an odd third argument — before it takes the batch's round or after the graph took it
			algo := Classes[int(arg[0])%len(Classes)].Name
			if arg[2]&1 != 0 {
				algo = ""
			}
			r.midRepair.Store(arg[1]&1 != 0)
			r.inj.PanicOn(algo, r.applies+1)
		case 9: // a recompute in place finds nothing to correct and keeps the view's position
			h := r.svc.Get(Classes[int(arg[0])%len(Classes)].Name)
			before := h.View()
			diverged, err := h.Verify()
			if r.armed[h.Algo()].Load() {
				// Its recompute panics: quarantined on the view it had.
				if err == nil {
					r.t.Fatalf("step %d: %s.Verify of an armed class: no error", step, h.Algo())
				}
				r.quarantine(h.Algo())
				break
			}
			if diverged || err != nil {
				r.t.Fatalf("step %d: %s.Verify: diverged %v, err %v", step, h.Algo(), diverged, err)
			}
			if v := h.View(); v.Epoch != before.Epoch || v.Batches != before.Batches {
				r.t.Fatalf("step %d: %s.Verify moved the view from epoch %d, batch %d to %d, %d", step, h.Algo(), before.Epoch, before.Batches, v.Epoch, v.Batches)
			}
		case 10: // one class's apply and heal both panic from now on: its next batch quarantines it
			r.armed[Classes[int(arg[0])%len(Classes)].Name].Store(true)
		}
		r.check(step)
	}
}

func FuzzOps(f *testing.F) {
	// One seed per dictionary entry at each weight, applied and taken back…
	for sel := 0; sel < 60; sel++ {
		f.Add([]byte{0, byte(sel), 1, 4, 1, byte(sel), 4, 1, 3, byte(sel), 2, 7})
	}
	// …and the ops around them: ranged reads on the page boundary, a
	// compaction, a checkpoint, a recovery with and without a WAL tail, a
	// verify of each class between updates, and across a recovery.
	f.Add([]byte{4, 0, 2, 3, 4, 0x81, 3, 4, 4, 2, 2, 2, 4, 3, 0, 7, 4, 5, 6, 7})
	f.Add([]byte{0, 8, 0, 1, 5, 0, 0, 0, 0, 9, 0, 1, 4, 4, 0, 6})
	f.Add([]byte{0, 7, 5, 6, 6, 0, 0, 0, 3, 5, 5, 6, 7, 0, 0, 0, 0, 1, 5, 6})
	f.Add([]byte{3, 0, 9, 10, 3, 1, 9, 10, 3, 0, 9, 10, 7, 0, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 45, 0, 7, 0, 45, 7, 3, 0, 52, 0, 7, 6, 0, 0, 0, 0, 1, 0, 7, 7, 0, 0, 0})
	f.Add([]byte{0, 8, 0, 1, 9, 0, 0, 0, 9, 1, 0, 0, 0, 5, 5, 6, 9, 2, 0, 0, 9, 3, 0, 0,
		0, 45, 2, 9, 9, 4, 0, 0, 9, 5, 0, 0, 0, 1, 2, 3, 7, 0, 0, 0, 9, 0, 0, 0, 0, 35, 1, 3, 9, 2, 0, 0})
	// An injected panic on each class, healed by a recompute that must keep
	// the batch; the second is armed across a recovery and an empty POST.
	f.Add([]byte{8, 0, 0, 0, 0, 0, 1, 4, 8, 1, 0, 0, 3, 5, 5, 6, 8, 2, 0, 0, 0, 7, 5, 6,
		8, 3, 0, 0, 0, 8, 0, 7, 8, 4, 0, 0, 0, 45, 2, 9, 8, 5, 0, 0, 7, 0, 0, 0, 0, 10, 0, 0, 0, 1, 2, 3})
	// A panic on each class after the graph took an edge's delete and
	// reinsert at a new weight.
	var mid []byte
	for c := byte(0); c < 6; c++ {
		mid = append(mid, 0, 15, 1, c+3, 8, c, 1, 0, 0, 35, 1, c+3)
	}
	f.Add(mid)
	// Every class panics before it takes the round, on a reweight and on a
	// triangle: the heals advance the graph once between them.
	f.Add([]byte{0, 15, 1, 4, 8, 0, 0, 1, 0, 35, 1, 4, 8, 0, 0, 1, 0, 8, 1, 4, 3, 0, 0, 0})
	// bc, first by name, quarantined by a batch and cc by a verify, a
	// checkpoint (of dfs's graph), a tail, a recovery that rebuilds both on
	// the cut, and a checkpoint and recovery after it.
	f.Add([]byte{10, 5, 0, 0, 0, 0, 1, 4, 10, 1, 0, 0, 9, 1, 0, 0, 0, 8, 0, 1, 4, 5, 3, 7,
		6, 0, 0, 0, 0, 45, 2, 9, 7, 0, 0, 0, 0, 1, 2, 3, 6, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &opsRig{t: t, dir: t.TempDir(), mirror: opsBase(), inj: faults.New()}
		r.boot()
		defer r.shutdown()
		r.check(-1)
		r.run(prog)
	})
}
