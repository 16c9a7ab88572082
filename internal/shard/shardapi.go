package shard

import (
	"encoding/json"
	"fmt"
	"net/http"

	"incgraph/internal/serve"
)

// This file is the shard-side half of the exchange protocol: the
// endpoints a shard daemon mounts on its serve.Service so the router
// can drive boundary-value exchange rounds against it.
//
//	GET  /shard/info        Info: identity, partitioner, epoch
//	POST /shard/eval/sssp   EvalRequest → EvalResponse (frontier relaxation)
//
// The evaluation runs through Host.WithState, which queues behind every
// accepted submission and executes inside the apply loop — so it reads
// the maintainer's graph without breaking the single-writer contract,
// and the reported epoch states exactly which stream prefix the
// returned pairs answer for.

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

// maxEvalBody bounds the eval request body (a frontier is at most one
// pair per vertex; 32 MiB covers millions of entries).
const maxEvalBody = 32 << 20

// MountShardAPI grafts the shard-side endpoints onto svc's API. id is
// this daemon's slot; nodes and directed describe the global graph;
// replica (optional) marks a warm follower, which Info advertises. Call
// before svc.Handler().
func MountShardAPI(svc *serve.Service, p Partitioner, id, nodes int, directed bool, replica func() bool) {
	svc.Mount("GET /shard/info", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := Info{
			Shard: id, Shards: p.Shards(), Partitioner: p.Name(),
			Nodes: nodes, Directed: directed, Epochs: map[string]uint64{},
		}
		if replica != nil {
			info.Replica = replica()
		}
		for _, h := range svc.Hosts() {
			info.Epochs[h.Algo()] = h.View().Epoch
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(info)
	}))
	// One relaxer serves the sssp host, the only class with an eval; the
	// host's apply loop serializes its use.
	var relaxer seedRelaxer
	svc.Mount("POST /shard/eval/{algo}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		algo := r.PathValue("algo")
		h := svc.Get(algo)
		if h == nil {
			http.Error(w, fmt.Sprintf("unknown algo %q", algo), http.StatusNotFound)
			return
		}
		var req EvalRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEvalBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := evalHost(h, &relaxer, req.Seeds)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
}

// evalHost runs one seeded evaluation inside h's apply loop, on top of
// the view the host has published: WithState runs after every accepted
// submission has been applied and published, so the view is the
// maintainer's current state, immutable, and read without a copy. Only
// sssp has a seeded evaluation — CC's exchange is a single label union
// the router computes from published views, needing no shard
// round-trip.
func evalHost(h *serve.Host, r *seedRelaxer, seeds [][2]int64) (EvalResponse, error) {
	resp := EvalResponse{Proto: EvalProto, Algo: h.Algo()}
	if resp.Algo != "sssp" {
		return resp, fmt.Errorf("algo %q has no seeded evaluation (exchange uses published views)", resp.Algo)
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
