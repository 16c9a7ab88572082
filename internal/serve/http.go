package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/resilience"
	"incgraph/internal/trace"
)

// Service is a set of named hosts behind one HTTP API, whose routes
// Handler lists, and the one apply loop that feeds them.
//
// Every update reaches every class by construction: Submit is the one way
// in (a POST /update, with ?algo= refused, a durable ingest and a
// replica's replayed record each submit once), and the loop applies each
// coalesced batch to every host, advancing each of their graphs by it
// once first (graph.Graph.Advance). The maintainers Start builds share one
// graph; hosts built on graphs of their own describe the same logical
// graph only because all of them take the one stream.
// The same handler serves a warm replica behind shard.Standby's gate,
// which answers /query from Host.WriteStale until promotion.
//
// POST /update participates in W3C trace context: an incoming
// traceparent header's trace ID is propagated through the submission
// queue onto the apply that incorporates the batch (spans, apply trace,
// logs), and the response carries a traceparent so callers can correlate.
// Requests without the header get a fresh trace ID.
type Service struct {
	mu    sync.RWMutex
	hosts []*Host // in algo-name order; replaced, never edited
	reg   *obs.Registry
	rec   *trace.Recorder
	start time.Time
	shed  *obs.Counter
	// stream is the one account of the update stream every host consumes.
	stream *streamAccount
	// The adjacency of the graph the hosts share: its series, and its
	// compaction count at the last batch (apply loop only).
	flatCompactions *obs.Counter
	flatOverlay     *obs.Gauge
	flatSeen        int64

	// The apply loop (loop.go). submitMu serializes Submit and WithState
	// (read side) against Close and a host joining (write side).
	submitMu sync.RWMutex
	started  atomic.Bool // set by the first Submit
	closed   bool
	in       chan submission // made, with the loop started, by the first host
	track    int32           // the loop's flight-recorder track
	quit     chan struct{}
	done     chan struct{}

	// mounts are extra handler routes included by Handler — the hook
	// shard-mode daemons use to graft the shard-local evaluation and
	// WAL-streaming endpoints onto the service API without the serving
	// core knowing about sharding. Registered before Handler is built.
	mounts map[string]http.Handler

	// journal, when installed (SetJournal), owns the durable ingest path:
	// POST /update hands it the validated batch, and it write-ahead-logs
	// the batch before submitting — atomically with respect to checkpoint
	// cuts.
	journal Journal
}

// Journal is the durability hook of POST /update. An implementation
// (serve.Durable) must make the batch durable and then submit it, such
// that no checkpoint cut can separate the two: a batch that reached any
// maintainer is either in a checkpoint's state or in the WAL tail a
// recovery replays. targets (every host) and algo (always "") are unused;
// the benchmark harness still passes both, so they stay until it drops them.
type Journal interface {
	Ingest(targets []*Host, algo string, b graph.Batch, tid trace.TraceID, wait bool) error
}

// SetJournal installs the durable ingest path. Call before serving
// traffic; j == nil reverts to direct (non-durable) submission.
func (s *Service) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

func (s *Service) getJournal() Journal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.journal
}

// traceCapacity is the service flight recorder's bounded size. At the
// ~10 events one applied batch produces, 8192 events retain the most
// recent several hundred applies across all hosts — enough to capture
// "what just happened" after an incident, small enough to be always on.
const traceCapacity = 8192

// NewService returns an empty service with a fresh metric registry; every
// host registered on it lands its metrics there, so one /metrics scrape
// covers all algos.
func NewService() *Service {
	s := &Service{
		reg:   obs.NewRegistry(),
		rec:   trace.NewRecorder(traceCapacity),
		start: time.Now(),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.reg.GaugeFunc("incgraph_uptime_seconds",
		"Seconds since the service was created.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.shed = s.reg.Counter("incgraph_shed_total",
		"Updates rejected with 503 because a submission queue was saturated.")
	s.stream = newStreamAccount(s.reg)
	s.flatCompactions = s.reg.Counter("incgraph_flat_compactions_total", "Compactions (in-place row layouts) of the shared graph's adjacency.")
	s.flatOverlay = s.reg.Gauge("incgraph_flat_overlay_ratio", "Dead space (array slots a compaction would reclaim) as a fraction of the shared graph's live adjacency entries after the last batch.")
	return s
}

// Registry returns the service's metric registry, for mounting extra
// process-level metrics next to the per-host ones.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Mount registers an extra route on the service API under the given
// ServeMux pattern (e.g. "POST /shard/eval/{algo}", "/wal/"). Call
// before Handler; later Mount calls do not affect handlers already
// built.
func (s *Service) Mount(pattern string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mounts == nil {
		s.mounts = make(map[string]http.Handler)
	}
	s.mounts[pattern] = h
}

// Recorder returns the service's flight recorder — the bounded ring
// behind GET /debug/trace that every host's spans land in.
func (s *Service) Recorder() *trace.Recorder { return s.rec }

// Host wraps m in a new Host and registers it under its Algo name; its
// metrics land in the service registry and its spans in the service flight
// recorder. The first host starts the apply loop and the stream at its
// BaseEpoch/BaseBatches; a later one whose node count, directedness,
// MaxBatch, MaxWait, Queue, BaseEpoch or BaseBatches differ is refused,
// naming the field, and so is a host after the first Submit (it would miss
// the stream's prefix) or after Close.
func (s *Service) Host(m Serveable, opt Options) (*Host, error) {
	opt = opt.withDefaults()
	algo, g := m.Algo(), m.Graph()
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	at, dup := s.find(algo)
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.started.Load():
		return nil, fmt.Errorf("serve: host %q: the service has taken updates; a host must join before the first Submit", algo)
	case dup:
		return nil, fmt.Errorf("serve: duplicate algo %q", algo)
	}
	if len(s.hosts) > 0 {
		first := s.hosts[0]
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"node count", g.NumNodes(), first.n},
			{"directed", g.Directed(), first.dir},
			{"MaxBatch", opt.MaxBatch, first.opt.MaxBatch},
			{"MaxWait", opt.MaxWait, first.opt.MaxWait},
			{"Queue", opt.Queue, first.opt.Queue},
			{"BaseEpoch", opt.BaseEpoch, first.opt.BaseEpoch},
			{"BaseBatches", opt.BaseBatches, first.opt.BaseBatches},
		} {
			if f.got != f.want {
				return nil, fmt.Errorf("serve: host %q: %s %v differs from the service's %v; one loop applies one stream to every host", algo, f.name, f.got, f.want)
			}
		}
	}
	h := newHost(s, m, opt)
	if s.in == nil {
		s.stream.seed(opt.BaseEpoch, opt.BaseBatches)
		s.reg.Gauge("incgraph_graph_nodes", "Node count of the maintained graph.").Set(float64(h.n))
		s.in = make(chan submission, opt.Queue)
		s.track = s.rec.Track("apply_loop")
		go s.loop(opt, h.dir)
	}
	s.hosts = slices.Insert(slices.Clone(s.hosts), at, h)
	return h, nil
}

// find returns where algo's host is, or would be, in s.hosts. Call with
// s.mu held.
func (s *Service) find(algo string) (int, bool) {
	return slices.BinarySearchFunc(s.hosts, algo, func(h *Host, algo string) int { return strings.Compare(h.algo, algo) })
}

// Get returns the host named algo, or nil.
func (s *Service) Get(algo string) *Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := s.find(algo); ok {
		return s.hosts[i]
	}
	return nil
}

// Hosts returns all hosts in algo-name order, the order the apply loop
// applies a batch in.
func (s *Service) Hosts() []*Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.hosts)
}

// UpdateResult is the JSON response of POST /update.
type UpdateResult struct {
	// Accepted is the number of unit updates parsed from the body.
	Accepted int `json:"accepted"`
	// Targets lists the algos the batch was submitted to.
	Targets []string `json:"targets"`
	// Applied reports whether the request waited for application
	// (wait=1) rather than returning on enqueue.
	Applied bool `json:"applied"`
	// TraceID is the request's W3C trace ID — from the caller's
	// traceparent header, or freshly minted — the key for finding this
	// update in the flight recording and access logs.
	TraceID string `json:"trace_id"`
	// Epochs maps each target algo to its published view epoch after
	// this request: with wait=1 the epochs include this batch (the
	// per-process half of the router's cross-shard epoch vector);
	// without it they are merely the current positions at response time.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// requestTraceID resolves the trace ID of an HTTP request: the one the
// access-log middleware already stored in the context, else a valid
// incoming traceparent header, else a fresh ID.
func requestTraceID(r *http.Request) trace.TraceID {
	if tid, ok := trace.IDFromContext(r.Context()); ok {
		return tid
	}
	if tid, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return tid
	}
	return trace.NewTraceID()
}

// Handler returns the HTTP API handler:
//
//	POST /update[?wait=1]                body: batch text ("+ u v w" / "- u v [w]")
//	GET  /query/{algo}[?range=lo:hi]     current snapshot view, one line of JSON (range:
//	                                     per-node vectors cut to nodes lo ≤ v < hi)
//	GET  /stats                          per-host serving counters, JSON
//	GET  /metrics                        Prometheus text exposition
//	GET  /metrics.json                   registry snapshot with raw histogram buckets
//	GET  /debug/applies[?algo=<name>]    recent apply trace events, JSON (?n= caps)
//	GET  /debug/trace                    flight recording, Chrome trace_event JSON (?n= caps)
//	GET  /debug/boundedness              per-host work-ledger audit reports, JSON
//	GET  /debug/offenders[?algo=<name>]  worst-boundedness applies (top-K), JSON
//	GET  /healthz                        liveness
//
// plus the routes Mount added. The control-plane answers (/stats,
// /debug/*, errors) are small and indented for reading; a view is O(|V|)
// and has one form, json.Marshal's.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		stats := make(map[string]Stats)
		for _, h := range s.Hosts() {
			stats[h.Algo()] = h.Stats()
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("GET /query/{algo}", s.handleQuery)
	mux.Handle("GET /metrics", s.reg.Handler())
	// The JSON snapshot keeps raw histogram buckets, so a federating
	// router can merge per-shard distributions exactly; the text
	// exposition above flattens them into unmergeable quantiles.
	mux.Handle("GET /metrics.json", s.reg.JSONHandler())
	mux.Handle("GET /debug/trace", s.rec.Handler())
	mux.HandleFunc("GET /debug/applies", func(w http.ResponseWriter, r *http.Request) {
		hosts := s.Hosts()
		if algo := r.URL.Query().Get("algo"); algo != "" {
			h := s.Get(algo)
			if h == nil {
				httpError(w, http.StatusNotFound, fmt.Errorf("unknown algo %q", algo))
				return
			}
			hosts = []*Host{h}
		}
		// ?n= caps the entries returned per host; the response is bounded
		// either way — by n, or by the hosts' ring capacities.
		n, err := obs.QueryN(r, maxAppliesPerHost)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		applies := make(map[string][]ApplyTrace, len(hosts))
		for _, h := range hosts {
			recent := h.RecentApplies()
			if len(recent) > n {
				recent = recent[len(recent)-n:]
			}
			applies[h.Algo()] = recent
		}
		writeJSON(w, http.StatusOK, applies)
	})
	// The boundedness audit plane: per-host cumulative work ledgers with
	// cost-model quotients, and the retained worst-boundedness applies.
	mux.HandleFunc("GET /debug/boundedness", func(w http.ResponseWriter, r *http.Request) {
		reports := make(map[string]BoundednessReport)
		for _, h := range s.Hosts() {
			reports[h.Algo()] = h.Boundedness()
		}
		writeJSON(w, http.StatusOK, reports)
	})
	mux.HandleFunc("GET /debug/offenders", func(w http.ResponseWriter, r *http.Request) {
		hosts := s.Hosts()
		if algo := r.URL.Query().Get("algo"); algo != "" {
			h := s.Get(algo)
			if h == nil {
				httpError(w, http.StatusNotFound, fmt.Errorf("unknown algo %q", algo))
				return
			}
			hosts = []*Host{h}
		}
		offenders := make(map[string][]Offender, len(hosts))
		for _, h := range hosts {
			// Empty rings still serialize as [], so clients need no
			// null-guard per algo.
			offs := h.Offenders()
			if offs == nil {
				offs = []Offender{}
			}
			offenders[h.Algo()] = offs
		}
		writeJSON(w, http.StatusOK, offenders)
	})
	mux.HandleFunc("POST /update", s.handleUpdate)
	s.mu.RLock()
	for pattern, h := range s.mounts {
		mux.Handle(pattern, h)
	}
	s.mu.RUnlock()
	// Routed through a resilient router, requests arrive with an
	// X-Incgraph-Deadline budget; the middleware turns it into a context
	// deadline so shard-local work is bounded by the caller's patience.
	return resilience.Middleware(mux)
}

// handleQuery answers GET /query/{algo} with the host's published view.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	h := s.Get(r.PathValue("algo"))
	if h == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown algo %q", r.PathValue("algo")))
		return
	}
	h.met.pagesEncoded.Add(float64(WriteQuery(w, r, h.View(), h.NumNodes())))
}

// WriteStale answers GET /query/{algo} as handleQuery does, with the view
// stamped Degraded: the read of a warm replica, which trails its primary
// by the replication lag (the epoch says by how much). The stamp is on a
// copy of the envelope; the pages and their cached bytes are shared.
func (h *Host) WriteStale(w http.ResponseWriter, r *http.Request) {
	v := *h.View()
	v.Degraded = true
	h.met.pagesEncoded.Add(float64(WriteQuery(w, r, &v, h.n)))
}

// WriteQuery answers a GET /query/{algo} request with v, a view of a
// graph of numNodes nodes, and returns how many pages it had to encode
// rather than copy from their cache. It is the one reader of the route's
// parameters, so a warm replica answering from its hosts' published views
// accepts what a primary accepts and writes the same bytes.
// The body is assembled whole before the header is written — envelope
// and scalars with strconv, every page of a per-node vector from the
// page's encoded-bytes cache — so an answer that cannot be encoded is a
// 500 rather than a truncated 200, every answer carries Content-Length,
// and no page is encoded twice: one an apply replaced since the last read
// inherited its predecessor's bytes (derivePage).
// The body is json.Marshal of the view plus a newline — the one wire form
// of a view, whoever reads it (pipe it through jq to indent it).
// ?range=lo:hi cuts every per-node vector to the nodes lo ≤ v < hi, reading
// only the pages the range overlaps, and adds "range":[lo,hi] to the
// envelope.
func WriteQuery(w http.ResponseWriter, r *http.Request, v *View, numNodes int) (pagesEncoded int) {
	q := r.URL.Query()
	var rng *[2]int
	if raws, ok := q["range"]; ok {
		lohi, err := parseRange(raws, numNodes)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return 0
		}
		rng = &lohi
	}
	bp := viewBufs.Get().(*[]byte)
	defer viewBufs.Put(bp)
	vw := viewWriter{b: (*bp)[:0]}
	err := vw.view(v, rng)
	*bp = vw.b
	switch {
	case errors.Is(err, errNoRange):
		httpError(w, http.StatusBadRequest, fmt.Errorf("algo %s: %w", v.Algo, err))
	case err != nil:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("algo %s: encoding view: %w", v.Algo, err))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(vw.b)))
		w.Write(vw.b) // a failed write is the client gone; nothing to report to
	}
	return vw.encoded
}

// parseRange parses the values of ?range= against a graph of n nodes:
// exactly one "lo:hi" of plain decimals with 0 ≤ lo ≤ hi ≤ n.
func parseRange(raws []string, n int) (lohi [2]int, err error) {
	if len(raws) != 1 {
		return lohi, fmt.Errorf("bad range %q: want one lo:hi", raws)
	}
	los, his, ok := strings.Cut(raws[0], ":")
	lo, errLo := strconv.ParseUint(los, 10, 31)
	hi, errHi := strconv.ParseUint(his, 10, 31)
	if !ok || errLo != nil || errHi != nil || lo > hi || hi > uint64(n) {
		return lohi, fmt.Errorf("bad range %q: want lo:hi with 0 <= lo <= hi <= %d", raws[0], n)
	}
	return [2]int{int(lo), int(hi)}, nil
}

// viewBufs pools the answer buffers of WriteQuery; a buffer settles at
// the size of one answer.
var viewBufs = sync.Pool{New: func() any { return new([]byte) }}

// errNoRange rejects ?range= on a view with no per-node vectors to cut
// (a Serveable outside this package whose Snapshot is not a paged view).
var errNoRange = errors.New("view has no per-node vectors to cut to a range")

// viewWriter assembles one /query answer in b, byte for byte what
// json.Marshal writes for the View, plus a newline. encoded counts the
// pages it had to encode rather than copy from their cache.
type viewWriter struct {
	b       []byte
	encoded int
}

// key starts an object member; first is the object's first member.
func (w *viewWriter) key(first bool, name string) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.b = append(append(append(w.b, '"'), name...), `":`...)
}

func (w *viewWriter) view(v *View, rng *[2]int) error {
	algo, err := json.Marshal(v.Algo) // owns string escaping
	if err != nil {
		return err
	}
	w.b = append(w.b, '{')
	w.key(true, "algo")
	w.b = append(w.b, algo...)
	w.key(false, "epoch")
	w.b = strconv.AppendUint(w.b, v.Epoch, 10)
	w.key(false, "batches")
	w.b = strconv.AppendUint(w.b, v.Batches, 10)
	if v.Degraded {
		w.key(false, "degraded")
		w.b = append(w.b, "true"...)
	}
	if rng != nil {
		w.key(false, "range")
		w.b = append(w.b, '[')
		w.b = append(strconv.AppendInt(w.b, int64(rng[0]), 10), ',')
		w.b = append(strconv.AppendInt(w.b, int64(rng[1]), 10), ']')
	}
	w.key(false, "data")
	if err := w.data(v.Data, rng); err != nil {
		return err
	}
	w.b = append(w.b, "}\n"...)
	return nil
}

// data writes the view's result object: field by field from pages for
// the six hosted view types, through encoding/json for anything else a
// Serveable's Snapshot may return.
func (w *viewWriter) data(d any, rng *[2]int) error {
	pv, ok := d.(pagedView)
	if !ok {
		if rng != nil {
			return errNoRange
		}
		raw, err := json.Marshal(d)
		w.b = append(w.b, raw...)
		return err
	}
	lo, hi := 0, math.MaxInt
	if rng != nil {
		lo, hi = rng[0], rng[1]
	}
	w.b = append(w.b, '{')
	for i, f := range pv.viewFields(lo, hi) {
		w.key(i == 0, f.name)
		switch {
		case f.list != nil:
			w.b = append(w.b, '[')
			for k, c := range f.list {
				if k > 0 {
					w.b = append(w.b, ',')
				}
				if err := w.vector(c); err != nil {
					return err
				}
			}
			w.b = append(w.b, ']')
		case f.vec.v != nil:
			if err := w.vector(f.vec); err != nil {
				return err
			}
		default:
			w.b = strconv.AppendInt(w.b, f.num, 10)
		}
	}
	w.b = append(w.b, '}')
	return nil
}

// vector writes the cut c as an array.
func (w *viewWriter) vector(c cut) error {
	if c.lo >= c.hi {
		w.b = append(w.b, "[]"...)
		return nil
	}
	w.b = append(w.b, '[')
	b, n, err := c.v.appendRange(w.b, c.lo, c.hi)
	w.b, w.encoded = append(b, ']'), w.encoded+n
	return err
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	b, err := graph.ReadBatch(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	query := r.URL.Query()
	if query.Has("algo") {
		httpError(w, http.StatusBadRequest, errors.New("algo: every update reaches every class; an update cannot target one"))
		return
	}
	targets := s.Hosts()
	if len(targets) == 0 {
		httpError(w, http.StatusServiceUnavailable, errNoHosts)
		return
	}
	// Validate before journaling, so a bad batch is never logged.
	if err := b.Validate(targets[0].NumNodes()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Shed before any durability: a saturated queue means a blocking
	// submit, and the 503 must mean "not accepted, not logged" — never
	// "rejected but will replay after a restart". Advisory (the queue can
	// fill between probe and submit, in which case the submit briefly
	// blocks), but it keeps ingest overload from stalling every caller.
	// The Retry-After estimates how long the loop needs to drain what is
	// already queued.
	if s.Saturated() {
		s.shed.Inc()
		w.Header().Set("Retry-After", s.retryAfter(targets))
		httpError(w, http.StatusServiceUnavailable, errors.New("submission queue saturated"))
		return
	}
	tid := requestTraceID(r)
	w.Header().Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
	wait := query.Get("wait") != ""
	res := UpdateResult{Accepted: len(b), Applied: wait, TraceID: tid.String()}
	for _, h := range targets {
		res.Targets = append(res.Targets, h.Algo())
	}
	// One Submit, durable or not; the loop applies the classes in turn, so
	// one POST's classes apply on one core and readers keep the other.
	// Concurrent applies (enqueue to every class, then wait) measured on
	// burst (six classes, 2 cores, seeds 1 and 2): update p50 6.93 / 6.83 →
	// 3.95 / 4.81 ms, updates/s 52.9k / 53.8k → 88.3k / 75.2k, but query
	// p50 0.88 / 0.88 → 2.27 / 2.49 ms (+160 %), both cores busy applying.
	// On durable's shape (|V| = 20k, sssp + cc, 16-update POSTs, no HTTP or
	// WAL) a POST's p50 was 41–50 µs concurrent, 44–52 µs host by host and
	// 38–42 µs through this loop, which nets once. Trading read latency for
	// write throughput is for alternating pairs once the classes share a
	// graph (ROADMAP item 2).
	if j := s.getJournal(); j != nil {
		err = j.Ingest(targets, "", b, tid, wait)
	} else {
		var ack <-chan struct{}
		if ack, err = s.Submit(b, tid); err == nil && wait {
			<-ack
		}
	}
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	res.Epochs = s.Epochs()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(appendUpdateResult(nil, &res))
}

// appendUpdateResult appends res as writeJSON encodes it, byte for byte,
// without reflection: POST /update answers every batch, and encoding it
// through encoding/json took 5 % of a trickle-shaped daemon's CPU.
func appendUpdateResult(b []byte, res *UpdateResult) []byte {
	b = append(b, "{\n  \"accepted\": "...)
	b = strconv.AppendInt(b, int64(res.Accepted), 10)
	b = append(b, ",\n  \"targets\": "...)
	switch {
	case res.Targets == nil:
		b = append(b, "null"...)
	case len(res.Targets) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, t := range res.Targets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendJSONString(b, t)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"applied\": "...)
	b = strconv.AppendBool(b, res.Applied)
	b = append(b, ",\n  \"trace_id\": "...)
	b = appendJSONString(b, res.TraceID)
	if len(res.Epochs) > 0 {
		algos := make([]string, 0, len(res.Epochs))
		for algo := range res.Epochs {
			algos = append(algos, algo)
		}
		slices.Sort(algos)
		b = append(b, ",\n  \"epochs\": {"...)
		for i, algo := range algos {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendJSONString(b, algo)
			b = append(b, ": "...)
			b = strconv.AppendUint(b, res.Epochs[algo], 10)
		}
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...)
}

// appendJSONString appends s quoted as encoding/json quotes it: as it is
// when no byte needs escaping, else through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// retryAfter derives a shed response's Retry-After from live serving
// stats: the loop applies every batch to every host in turn, so the queue
// drains in its depth times the sum over the hosts of the apply time per
// update this process has spent. Clamped to [1s, 30s] — honest enough to
// spread retries by actual backlog, padded up so clients never busy-loop
// on a zero estimate.
func (s *Service) retryAfter(hosts []*Host) string {
	var secs float64
	if at := s.stream.pos(); at.epoch > at.base {
		var nanos int64
		for _, h := range hosts {
			h.statMu.Lock()
			nanos += h.stats.TotalApplyNanos
			h.statMu.Unlock()
		}
		secs = float64(at.recv-at.epoch) * float64(nanos) / float64(at.epoch-at.base) / 1e9
	}
	return strconv.Itoa(min(max(int(math.Ceil(secs)), 1), 30))
}

// Epochs maps every host's algo to its published view's epoch. Read after
// a Submit's channel closed, they cover the submitted batch.
func (s *Service) Epochs() map[string]uint64 {
	hosts := s.Hosts()
	es := make(map[string]uint64, len(hosts))
	for _, h := range hosts {
		es[h.Algo()] = h.View().Epoch
	}
	return es
}

// maxAppliesPerHost caps GET /debug/applies entries per host even when
// ?n= asks for more — the response stays bounded regardless of how large
// the rings were configured.
const maxAppliesPerHost = 4096

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
