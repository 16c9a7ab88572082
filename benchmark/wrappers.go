//go:build linux

package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"incgraph"
	"incgraph/internal/fixpoint"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer: a Serveable decorator (engine and snapshot), a
// Journal wrapper (wal), the host's OnApply hook (serve's apply loop) and
// HTTP middleware (serve and shard handlers). Nothing inside the system
// is edited; README.md lists the signatures these wrappers pin.

// tracer is the shared state of one traced run's wrappers.
type tracer struct {
	rec *recorder

	mu     sync.Mutex
	algo   map[string]*algoStats // keyed by algo, summed over shards
	raw    int64                 // unit updates submitted to hosts
	netted int64                 // ... left after coalescing

	shardBytes atomic.Int64 // request+response bytes of shard calls made for queries
}

// algoStats sums what one class's applies reported during the traced phase.
type algoStats struct {
	work, delta     int64 // work ledger: Σ Work, Σ |ΔG|
	hSec, resumeSec float64
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), algo: map[string]*algoStats{}}
}

// tracedServeable spans the maintainer calls the host makes. suffix is
// "" or "@s<shard>"; hostParent is the span kind that submits to hosts.
type tracedServeable struct {
	incgraph.Serveable
	t          *tracer
	algo       string
	suffix     string
	hostParent string
	// applyStart is when the current Apply began; only the host's apply
	// loop goroutine touches it (Apply and OnApply both run there).
	applyStart int64
}

func (t *tracer) wrap(m incgraph.Serveable, suffix, hostParent string) *tracedServeable {
	return &tracedServeable{Serveable: m, t: t, algo: m.Algo(), suffix: suffix, hostParent: hostParent}
}

func (s *tracedServeable) hostSpan() string { return "serve.host." + s.algo + s.suffix }

func (s *tracedServeable) Apply(b incgraph.Batch) incgraph.ServeApplyResult {
	s.applyStart = s.t.rec.now()
	end := s.t.rec.begin("engine.apply."+s.algo+s.suffix, s.hostSpan(), "update")
	res := s.Serveable.Apply(b)
	end()
	if s.t.rec.on.Load() {
		s.t.mu.Lock()
		st := s.t.algo[s.algo]
		if st == nil {
			st = &algoStats{}
			s.t.algo[s.algo] = st
		}
		if res.HasLedger {
			st.work += res.Ledger.Work()
			st.delta += res.Ledger.Delta
		}
		if res.HasStats {
			st.hSec += res.Stats.HSeconds
			st.resumeSec += res.Stats.ResumeSeconds
		}
		s.t.mu.Unlock()
	}
	return res
}

func (s *tracedServeable) Snapshot() any {
	defer s.t.rec.begin("serve.snapshot."+s.algo+s.suffix, s.hostSpan(), "update")()
	return s.Serveable.Snapshot()
}

// PersistState runs inside a checkpoint, which blocks the next ingest: it
// is charged to the update op that waits for it.
func (s *tracedServeable) PersistState(w io.Writer) error {
	defer s.t.rec.begin("serve.persist_state."+s.algo+s.suffix, "wal.ingest"+s.suffix, "update")()
	return s.Serveable.PersistState(w)
}

// Recompute belongs to no client op (recovery verification, heals).
func (s *tracedServeable) Recompute() {
	defer s.t.rec.begin("engine.recompute."+s.algo+s.suffix, "", "")()
	s.Serveable.Recompute()
}

// The host discovers these optional extensions by type assertion on the
// Serveable it was handed, so the decorator must offer each one and pass
// it on when the wrapped maintainer has it.

func (s *tracedServeable) SetTracer(tr fixpoint.Tracer) {
	if x, ok := s.Serveable.(interface{ SetTracer(fixpoint.Tracer) }); ok {
		x.SetTracer(tr)
	}
}

func (s *tracedServeable) SetWorkers(n int) {
	if x, ok := s.Serveable.(interface{ SetWorkers(int) }); ok {
		x.SetWorkers(n)
	}
}

func (s *tracedServeable) SetCompactThreshold(th float64) {
	if x, ok := s.Serveable.(interface{ SetCompactThreshold(float64) }); ok {
		x.SetCompactThreshold(th)
	}
}

func (s *tracedServeable) ParStats() fixpoint.ParStats {
	if x, ok := s.Serveable.(interface{ ParStats() fixpoint.ParStats }); ok {
		return x.ParStats()
	}
	return fixpoint.ParStats{}
}

// onApply is the host's OnApply hook: it runs in the apply loop after the
// view is published, so [apply start − queue wait, now] is the host's
// whole handling of the batch — queue, coalescing window, Net, the
// maintainer calls, publish and accounting.
func (s *tracedServeable) onApply(at incgraph.ServeApplyTrace) {
	r := s.t.rec
	if !r.on.Load() {
		return
	}
	r.add(span{
		name: s.hostSpan(), parent: s.hostParent, kind: "update",
		op: r.curOp[kindIndex("update")].Load(), start: s.applyStart - at.QueueWaitNanos, end: r.now(),
	})
	s.t.mu.Lock()
	s.t.raw += int64(at.RawUpdates)
	s.t.netted += int64(at.NetUpdates)
	s.t.mu.Unlock()
}

// tracedJournal spans the durable ingest path: WAL append and fsync, then
// submission to the hosts (whose spans nest inside).
type tracedJournal struct {
	inner  *incgraph.Durable
	t      *tracer
	suffix string
	parent string
}

func (j tracedJournal) Ingest(targets []*incgraph.ServeHost, algo string, b incgraph.Batch, tid incgraph.TraceID, wait bool) error {
	defer j.t.rec.begin("wal.ingest"+j.suffix, j.parent, "update")()
	return j.inner.Ingest(targets, algo, b, tid, wait)
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// serviceMiddleware spans a daemon's (or shard's) handler by route.
// updateParent and queryParent name the span kinds that call it: the
// client's root spans for a lone daemon, the router's for a shard.
func (t *tracer) serviceMiddleware(next http.Handler, suffix, updateParent, queryParent string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var end func()
		query := false
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/update":
			end = t.rec.begin("serve.http_update"+suffix, updateParent, "update")
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/query/"):
			algo := strings.TrimPrefix(r.URL.Path, "/query/")
			end = t.rec.begin("serve.http_query."+algo+suffix, parentFor(queryParent, algo), "query")
			query = true
		case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/shard/eval/"):
			algo := strings.TrimPrefix(r.URL.Path, "/shard/eval/")
			end = t.rec.begin("shard.eval"+suffix, parentFor(queryParent, algo), "query")
			query = true
		default:
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		end()
		if query && suffix != "" && t.rec.on.Load() {
			t.shardBytes.Add(cw.n + max(r.ContentLength, 0))
		}
	})
}

// parentFor resolves a query parent: the router's query spans carry the
// algo, the client's root span does not.
func parentFor(parent, algo string) string {
	if parent == "client.query" {
		return parent
	}
	return parent + "." + algo
}

// routerMiddleware spans the router's two client-facing routes.
func (t *tracer) routerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/update":
			defer t.rec.begin("shard.router_update", "client.update", "update")()
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/query/"):
			defer t.rec.begin("shard.router_query."+strings.TrimPrefix(r.URL.Path, "/query/"), "client.query", "query")()
		}
		next.ServeHTTP(w, r)
	})
}
