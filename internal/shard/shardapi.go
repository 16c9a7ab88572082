package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"incgraph/internal/resilience"
	"incgraph/internal/serve"
)

// This file is the shard-side half of the exchange protocol: the
// endpoints a shard daemon mounts on its serve.Service so the router
// can drive boundary-value exchange rounds against it.
//
//	GET  /shard/info        Info: identity, partitioner, epoch
//	POST /shard/eval/sssp   EvalRequest → EvalResponse (frontier relaxation)
//	GET  /replica/status    FollowerStatus: lag and position (Standby)
//	POST /replica/promote   stop following, become the primary (Standby)
//
// The evaluation runs through Host.WithState, which queues behind every
// accepted submission and executes inside the service's apply loop — so
// it reads the maintainer's graph without breaking the single-writer
// contract, and the reported epoch states exactly which stream prefix the
// returned pairs answer for.
//
// The eval handler reads its request and writes its answer by hand
// (wire.go: scanEvalRequest, appendEvalResponse) — the bytes are what
// encoding/json reads into EvalRequest and writes for EvalResponse, so
// the wire is the one an older router speaks; a routed query makes one
// per frontier, one after another, and reflection was most of what each
// cost. /shard/info, asked once per topology probe, stays on
// encoding/json.

// Info is the JSON body of GET /shard/info: the daemon's shard identity.
type Info struct {
	// Shard is this daemon's shard id; Shards the topology width.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Partitioner names the vertex-ownership scheme; router and shard
	// must agree on it for routing to mean anything.
	Partitioner string `json:"partitioner"`
	// Nodes is the graph's global node count (fragments keep every
	// node), and Directed its edge mode — the two facts a router needs
	// to validate and split batches.
	Nodes    int  `json:"nodes"`
	Directed bool `json:"directed"`
	// Replica reports whether the daemon is a warm replica (not yet
	// promoted).
	Replica bool `json:"replica,omitempty"`
	// Epochs maps hosted algos to their published view epochs.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// EvalProto is the version of the eval wire protocol a shard speaks.
// Version 2 answers with the sparse pairs an eval improved; its
// predecessor answered with a dense vector under "values" and carried
// no version, so a router can tell an old shard from a shard that
// improved nothing.
const EvalProto = 2

// EvalRequest asks a shard for one local evaluation. Seeds are the
// shard's exchange frontier: sparse [vertex, value] pairs that improved
// elsewhere since the shard last heard of them.
type EvalRequest struct {
	// Seeds lists [vertex, value] pairs seeding the relaxation.
	Seeds [][2]int64 `json:"seeds"`
}

// EvalResponse is a shard's answer to one evaluation.
type EvalResponse struct {
	// Proto is EvalProto; Client.Eval rejects any other value.
	Proto int `json:"proto"`
	// Algo echoes the evaluated query class.
	Algo string `json:"algo"`
	// Epoch is the shard's stream position the evaluation saw.
	Epoch uint64 `json:"epoch"`
	// Improved lists the [vertex, value] pairs the shard's fragment
	// edges lowered below both its view and the seeds.
	Improved [][2]int64 `json:"improved"`
}

// maxEvalBody bounds an eval request body as the shard reads it and a
// view or eval answer as the router reads it (a frontier is at most one
// pair per vertex; 32 MiB covers millions of entries).
const maxEvalBody = 32 << 20

// errBadEval marks an eval that failed on what the caller sent — an algo
// with no seeded evaluation, seeds relax refuses — and is answered 400;
// any other failure is the shard's.
var errBadEval = errors.New("bad eval request")

// MountShardAPI grafts the shard-side endpoints onto svc's API. id is
// this daemon's slot; nodes and directed describe the global graph;
// replica (optional) marks a warm follower, which Info advertises. Call
// before svc.Handler().
func MountShardAPI(svc *serve.Service, p Partitioner, id, nodes int, directed bool, replica func() bool) {
	svc.Mount("GET /shard/info", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := Info{
			Shard: id, Shards: p.Shards(), Partitioner: p.Name(),
			Nodes: nodes, Directed: directed, Epochs: svc.Epochs(),
		}
		if replica != nil {
			info.Replica = replica()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(info)
	}))
	// One relaxer serves the sssp host, the only class with an eval; the
	// service's apply loop serializes its use.
	var relaxer seedRelaxer
	svc.Mount("POST /shard/eval/{algo}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		algo := r.PathValue("algo")
		h := svc.Get(algo)
		if h == nil {
			http.Error(w, fmt.Sprintf("unknown algo %q", algo), http.StatusNotFound)
			return
		}
		body, err := readBody(http.MaxBytesReader(w, r.Body, maxEvalBody), r.ContentLength, maxEvalBody)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := scanEvalRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := evalHost(h, &relaxer, req.Seeds)
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			out := appendEvalResponse(nil, &resp)
			w.Header().Set("Content-Length", strconv.Itoa(len(out)))
			w.Write(out) // a failed write is the router gone
		case errors.Is(err, errBadEval):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, serve.ErrClosed):
			// Draining, or about to be replaced: by the time the router
			// retries, the slot's active member may be another process.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
}

// evalHost runs one seeded evaluation inside the apply loop, on top of
// the view the host has published: WithState runs after every accepted
// submission has been applied and published, so the view is the
// maintainer's current state, immutable, and read without a copy. Only
// sssp has a seeded evaluation — CC's exchange is a single label union
// the router computes from published views, needing no shard
// round-trip. An error is an errBadEval when the request was at fault,
// serve.ErrClosed when the service is shutting down, and otherwise a broken
// invariant of the shard's own; the handler answers 400, 503 and 500.
func evalHost(h *serve.Host, r *seedRelaxer, seeds [][2]int64) (EvalResponse, error) {
	resp := EvalResponse{Proto: EvalProto, Algo: h.Algo()}
	if resp.Algo != "sssp" {
		return resp, fmt.Errorf("%w: algo %q has no seeded evaluation (exchange uses published views)", errBadEval, resp.Algo)
	}
	err := h.WithState(func(m serve.Serveable) error {
		view := h.View()
		sv, ok := view.Data.(serve.SSSPView)
		if !ok {
			return fmt.Errorf("sssp view holds %T", view.Data)
		}
		var err error
		resp.Epoch = view.Epoch
		resp.Improved, err = r.relax(m.Graph(), sv.Dist, seeds)
		return err
	})
	return resp, err
}

// Standby is a warm replica's HTTP surface and promotion switch. Until it
// is promoted the replica serves its service's whole API behind a gate:
// POST /update and POST /shard/eval/{algo} answer 503, and GET
// /query/{algo} answers from the hosts' published views stamped degraded
// (Host.WriteStale) — the stale read a router falls back to while a
// primary's breaker is open. A promotion takes the gate away.
type Standby struct {
	svc *serve.Service
	f   *Follower
	// promote makes the service writable (OpenDurable, mounting /wal/); it
	// runs with the follower stopped and may be called again after failing.
	promote func() error

	mu   sync.Mutex                   // one promotion attempt at a time
	live atomic.Pointer[http.Handler] // the ungated API; nil until promoted
}

// NewStandby wires the promotion switch of a replica whose follower f
// (already running) feeds svc. Pass Following to MountShardAPI, then serve
// Handler.
func NewStandby(svc *serve.Service, f *Follower, promote func() error) *Standby {
	return &Standby{svc: svc, f: f, promote: promote}
}

// Following reports whether the replica has not been promoted yet.
func (s *Standby) Following() bool { return s.live.Load() == nil }

// Handler mounts the replica routes on the service and returns the
// handler to serve: the gated API until promotion, the service's own from
// then on. Call it once, after every other Mount.
func (s *Standby) Handler() http.Handler {
	s.svc.Mount("GET /replica/status", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.f.Status())
	}))
	s.svc.Mount("POST /replica/promote", http.HandlerFunc(s.handlePromote))
	full := s.svc.Handler()
	refuse := func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable,
			errors.New("warm replica: not serving until POST /replica/promote"))
	}
	gate := http.NewServeMux()
	gate.HandleFunc("POST /update", refuse)
	gate.HandleFunc("POST /shard/eval/{algo}", refuse)
	gate.HandleFunc("GET /query/{algo}", func(w http.ResponseWriter, r *http.Request) {
		if h := s.svc.Get(r.PathValue("algo")); h != nil {
			h.WriteStale(w, r)
			return
		}
		full.ServeHTTP(w, r) // the service's own 404
	})
	gate.Handle("/", full)
	gated := resilience.Middleware(gate) // full carries its own; this covers the gate's routes
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if live := s.live.Load(); live != nil {
			(*live).ServeHTTP(w, r)
			return
		}
		gated.ServeHTTP(w, r)
	})
}

// handlePromote serves POST /replica/promote: stop the follower (its last
// drain applies every shipped record), make the service writable, and
// swap in a handler built after promote mounted its routes. The hosts
// keep the epochs they replayed to, which the answer reports. A failed
// attempt can be repeated; after a successful one the answer is 409.
func (s *Standby) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Following() {
		writeError(w, http.StatusConflict, errors.New("already promoted"))
		return
	}
	s.f.Stop()
	if err := s.promote(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	full := s.svc.Handler()
	s.live.Store(&full)
	writeJSON(w, http.StatusOK, map[string]any{"epochs": s.f.Epochs()})
}
