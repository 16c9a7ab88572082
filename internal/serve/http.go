package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/resilience"
	"incgraph/internal/trace"
)

// Service is a set of named hosts behind one HTTP API:
//
//	POST /update[?algo=<name>][&wait=1]  body: batch text ("+ u v w" / "- u v [w]")
//	GET  /query/{algo}[?range=lo:hi]     current snapshot view, one line of JSON (range:
//	                                     per-node vectors cut to nodes lo ≤ v < hi)
//	GET  /stats                          per-host serving counters, JSON
//	GET  /metrics                        Prometheus text exposition
//	GET  /metrics.json                   registry snapshot with raw histogram buckets
//	GET  /debug/applies[?algo=<name>]    recent apply trace events, JSON
//	GET  /debug/trace                    flight recording, Chrome trace_event JSON
//	GET  /debug/boundedness              per-host work-ledger audit reports, JSON
//	GET  /debug/offenders[?algo=<name>]  worst-boundedness applies (top-K), JSON
//	GET  /healthz                        liveness
//
// The control-plane answers (/stats, /debug/*, errors) are small and
// indented for reading; a view is O(|V|) and has one form, json.Marshal's.
//
// An update with no algo parameter is broadcast to every host: each
// maintainer owns a private copy of the graph, so the same ΔG must reach
// all of them to keep their answers describing the same logical graph.
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
	hosts map[string]*Host
	reg   *obs.Registry
	rec   *trace.Recorder
	start time.Time
	shed  *obs.Counter

	// mounts are extra handler routes included by Handler — the hook
	// shard-mode daemons use to graft the shard-local evaluation and
	// WAL-streaming endpoints onto the service API without the serving
	// core knowing about sharding. Registered before Handler is built.
	mounts map[string]http.Handler

	// journal, when installed (SetJournal), owns the durable ingest path:
	// POST /update hands it the validated batch and targets, and it
	// write-ahead-logs the batch before submitting — atomically with
	// respect to checkpoint cuts.
	journal Journal
}

// Journal is the durability hook of POST /update. An implementation
// (serve.Durable) must make the batch durable and then submit it to every
// target, such that no checkpoint cut can separate the two: a batch that
// reached any maintainer is either in a checkpoint's state or in the WAL
// tail a recovery replays.
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
		hosts: make(map[string]*Host),
		reg:   obs.NewRegistry(),
		rec:   trace.NewRecorder(traceCapacity),
		start: time.Now(),
	}
	s.reg.GaugeFunc("incgraph_uptime_seconds",
		"Seconds since the service was created.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.shed = s.reg.Counter("incgraph_shed_total",
		"Updates rejected with 503 because a submission queue was saturated.")
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

// Host wraps m in a new Host and registers it under its Algo name. The
// host's metrics land in the service registry unless opt.Registry
// overrides it, and its spans in the service flight recorder unless
// opt.Recorder overrides it.
func (s *Service) Host(m Serveable, opt Options) (*Host, error) {
	if opt.Registry == nil {
		opt.Registry = s.reg
	}
	if opt.Recorder == nil {
		opt.Recorder = s.rec
	}
	h := NewHost(m, opt)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.hosts[h.Algo()]; dup {
		h.Close()
		return nil, fmt.Errorf("serve: duplicate algo %q", h.Algo())
	}
	s.hosts[h.Algo()] = h
	return h, nil
}

// Get returns the host named algo, or nil.
func (s *Service) Get(algo string) *Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hosts[algo]
}

// Hosts returns all hosts in algo-name order.
func (s *Service) Hosts() []*Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.hosts))
	for n := range s.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Host, len(names))
	for i, n := range names {
		out[i] = s.hosts[n]
	}
	return out
}

// Close drains and stops every host. The HTTP server should be shut down
// first so no new submissions race the drain.
func (s *Service) Close() {
	for _, h := range s.Hosts() {
		h.Close()
	}
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

// Handler returns the HTTP API handler.
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
	var targets []*Host
	if algo := r.URL.Query().Get("algo"); algo != "" {
		h := s.Get(algo)
		if h == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown algo %q", algo))
			return
		}
		targets = []*Host{h}
	} else {
		targets = s.Hosts()
	}
	if len(targets) == 0 {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("no hosted maintainers"))
		return
	}
	// Validate against every target up front so a broadcast is
	// all-or-nothing across hosts.
	for _, h := range targets {
		if err := b.Validate(h.NumNodes()); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("algo %s: %w", h.Algo(), err))
			return
		}
	}
	// Shed before any durability: a saturated queue means a blocking
	// submit, and the 503 must mean "not accepted, not logged" — never
	// "rejected but will replay after a restart". Advisory (the queue can
	// fill between probe and submit, in which case the submit briefly
	// blocks), but it keeps ingest overload from stalling every caller.
	// The Retry-After is an estimate of how long the worst target needs
	// to drain what it has already queued, not a constant.
	for _, h := range targets {
		if h.Saturated() {
			s.shed.Inc()
			w.Header().Set("Retry-After", retryAfterEstimate(targets))
			httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("algo %s: submission queue saturated", h.Algo()))
			return
		}
	}
	tid := requestTraceID(r)
	w.Header().Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
	wait := r.URL.Query().Get("wait") != ""
	res := UpdateResult{Accepted: len(b), Applied: wait, TraceID: tid.String()}
	for _, h := range targets {
		res.Targets = append(res.Targets, h.Algo())
	}
	if j := s.getJournal(); j != nil {
		if err := j.Ingest(targets, r.URL.Query().Get("algo"), b, tid, wait); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		res.Epochs = viewEpochs(targets)
		writeJSON(w, http.StatusOK, res)
		return
	}
	// Host by host on purpose: with wait, each host applies the batch
	// before the next is handed it, so the classes of one POST apply on one
	// core at a time and readers keep the other. Enqueueing to all hosts
	// first and then waiting, as Durable.Ingest does, measured on the
	// burst workload (six classes, 2 cores, seeds 1 and 2): update p50
	// 6.93 / 6.83 → 3.95 / 4.81 ms and updates/s 52.9k / 53.8k → 88.3k /
	// 75.2k, but query p50 0.88 / 0.88 → 2.27 / 2.49 ms (+160 %), because
	// both cores are busy applying. Trading read latency for write
	// throughput is a decision for alternating pairs, not a default.
	for _, h := range targets {
		if err := h.SubmitTraced(b, tid, wait); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	res.Epochs = viewEpochs(targets)
	writeJSON(w, http.StatusOK, res)
}

// retryAfterEstimate derives a shed response's Retry-After from live
// serving stats: for each target, the queued updates divided by the
// observed mean batch size give the batches left to drain, times the
// mean apply latency. The worst target's estimate wins, clamped to
// [1s, 30s] — honest enough to spread retries by actual backlog, padded
// up so clients never busy-loop on a zero estimate.
func retryAfterEstimate(targets []*Host) string {
	var worst float64
	for _, h := range targets {
		st := h.Stats()
		if st.QueueDepth == 0 || st.MeanApplyNanos <= 0 {
			continue
		}
		meanBatch := 1.0
		if st.BatchesApplied > 0 {
			if mb := float64(st.UpdatesApplied) / float64(st.BatchesApplied); mb > 1 {
				meanBatch = mb
			}
		}
		batchesLeft := float64(st.QueueDepth) / meanBatch
		drain := batchesLeft * float64(st.MeanApplyNanos) / float64(time.Second)
		if drain > worst {
			worst = drain
		}
	}
	secs := int(math.Ceil(worst))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// viewEpochs snapshots each target's published view epoch — taken after
// submission (and, under wait=1, after application), so an acknowledged
// update is covered by the reported epochs.
func viewEpochs(targets []*Host) map[string]uint64 {
	es := make(map[string]uint64, len(targets))
	for _, h := range targets {
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
