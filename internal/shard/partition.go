// Package shard is the multi-process serving topology: it partitions a
// graph across N shard daemons, routes update batches to the owning
// shards, assembles cross-shard query answers by iterating a
// boundary-value exchange round over shard-local fixpoints, supervises
// the shard processes, and keeps a warm replica per shard current by
// shipping WAL segments.
//
// The design is the paper's own evaluation model turned into a service
// topology: GRAPE-style partitioned fixpoint computation, where each
// worker runs the sequential algorithm over its fragment and rounds of
// boundary-value exchange propagate values across cut edges until
// nothing changes. Here every "worker" is an incgraphd process
// maintaining its fragment *incrementally* (the shard-local h/resume of
// the paper), so the per-round local evaluation that GRAPE pays as a
// fixpoint re-run is instead answered from the shard's always-current
// maintained view, and only the exchange rounds — seeded relaxations
// across the cut — cost anything at query time.
//
// Topology (see ARCHITECTURE.md for the full diagram):
//
//	client ── incrouter ──┬── incgraphd -shard-id 0 ──WAL──▶ incgraphd -replica-of (warm)
//	                      └── incgraphd -shard-id 1 ──WAL──▶ incgraphd -replica-of (warm)
//
// The router splits POST /update batches by edge ownership, fans the
// sub-batches out, and stamps every response with an epoch vector (one
// entry per shard) so readers can reason about cross-shard prefix
// consistency. A supervisor spawns and monitors the shard processes,
// gates routing on health, and promotes a shard's replica when the
// primary dies.
package shard

import (
	"fmt"

	"incgraph/internal/graph"
)

// Partitioner assigns every vertex to exactly one owning shard. The
// interface is deliberately minimal so hash partitioning (below) can
// later be joined by range or layer partitioners (Layph-style layered
// cuts) without touching the router: everything downstream — batch
// splitting, graph filtering, exchange — only asks "who owns v".
type Partitioner interface {
	// Owner returns the shard id owning vertex v, in [0, Shards()).
	Owner(v graph.NodeID) int
	// Shards returns the shard count N.
	Shards() int
	// Name identifies the partitioning scheme ("hash", …) for topology
	// introspection and logs.
	Name() string
}

// HashPartitioner owns vertices by a multiplicative hash of their id —
// stateless, uniform for both dense and clustered id spaces, and
// identical across processes, which is what lets the router and every
// shard daemon derive the same ownership from just (scheme, N).
type HashPartitioner struct {
	// N is the shard count.
	N int
}

// NewHashPartitioner returns the hash partitioner over n shards.
func NewHashPartitioner(n int) HashPartitioner { return HashPartitioner{N: n} }

// hashMul is the 64-bit Fibonacci-hashing multiplier (2^64/φ, odd); a
// single multiply spreads consecutive ids across the full word so the
// high bits are uniform even for v = 0,1,2,…
const hashMul = 0x9E3779B97F4A7C15

// Owner implements Partitioner.
func (p HashPartitioner) Owner(v graph.NodeID) int {
	return int((uint64(v) * hashMul >> 33) % uint64(p.N))
}

// Shards implements Partitioner.
func (p HashPartitioner) Shards() int { return p.N }

// Name implements Partitioner.
func (p HashPartitioner) Name() string { return "hash" }

// NewPartitioner builds the named partitioning scheme over n shards —
// the registry the -partitioner flag family resolves through.
func NewPartitioner(scheme string, n int) (Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	switch scheme {
	case "", "hash":
		return NewHashPartitioner(n), nil
	}
	return nil, fmt.Errorf("shard: unknown partitioner %q (want hash)", scheme)
}

// OwnsEdge reports whether shard id stores edge (u, v) under p. Directed
// edges live with the owner of their tail — the shard that must relax
// across them during local evaluation. Undirected edges live with both
// endpoint owners, so each side can relax the edge locally; the
// duplication is confined to cut edges.
func OwnsEdge(p Partitioner, directed bool, id int, u, v graph.NodeID) bool {
	if p.Owner(u) == id {
		return true
	}
	return !directed && p.Owner(v) == id
}

// IsCut reports whether edge (u, v) crosses shards under p — the edges
// the exchange rounds exist for.
func IsCut(p Partitioner, u, v graph.NodeID) bool { return p.Owner(u) != p.Owner(v) }

// SplitBatch splits one client batch into per-shard sub-batches by edge
// ownership, preserving relative update order inside each sub-batch. An
// update on an undirected cut edge is duplicated into both endpoint
// shards (mirroring OwnsEdge); every update lands in at least one
// sub-batch, so the union of sub-batches applied shard-locally equals
// the batch applied to the unsharded graph.
func SplitBatch(p Partitioner, directed bool, b graph.Batch) []graph.Batch {
	out := make([]graph.Batch, p.Shards())
	for _, u := range b {
		of := p.Owner(u.From)
		out[of] = append(out[of], u)
		if !directed {
			if ot := p.Owner(u.To); ot != of {
				out[ot] = append(out[ot], u)
			}
		}
	}
	return out
}

// FilterGraph extracts shard id's fragment of g: all n nodes (ids are
// global, so every shard addresses the same id space) with labels
// preserved, but only the edges OwnsEdge assigns to id. Shard daemons
// build their graph through this, and because the same rule routes
// updates, a fragment stays exactly the owned sub-multiset of the
// logical graph's edges as the stream evolves. It is one pass over g's
// sorted rows (graph.Graph.Filter), which stay sorted filtered.
func FilterGraph(g *graph.Graph, p Partitioner, id int) *graph.Graph {
	directed := g.Directed()
	return g.Filter(func(u, v graph.NodeID) bool { return OwnsEdge(p, directed, id, u, v) })
}
