// Package incgraph is a Go implementation of "Incrementalizing Graph
// Algorithms" (Fan, Tian, Xu, Yin, Yu, Zhou — SIGMOD 2021): a systematic
// framework that deduces incremental graph algorithms from batch fixpoint
// algorithms, with correctness (Theorem 1) and relative boundedness
// (Theorem 3) guarantees.
//
// The package exposes, for each of the paper's five query classes — SSSP,
// connected components, graph simulation, depth-first search and local
// clustering coefficient — the batch algorithm and an incremental
// maintainer deduced from it. A maintainer owns its graph: construct it
// once (paying the batch cost), then feed update batches ΔG through Apply
// and read the always-current result:
//
//	g := incgraph.NewGraph(n, true)
//	// ... InsertEdge ...
//	inc := incgraph.NewIncSSSP(g, 0)
//	inc.Apply(incgraph.Batch{{Kind: incgraph.InsertEdge, From: 3, To: 7, W: 2}})
//	dist := inc.Dist() // distances on G ⊕ ΔG
//
// The generic machinery — the fixpoint model Φ, the initial scope function
// h of Fig. 4, timestamps and the order <_C — lives in internal/fixpoint
// and can host further query classes; the five instances here follow §3–5
// of the paper, and two extensions (biconnectivity, dual simulation) show
// what adding a class costs.
package incgraph

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/serve"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// Graph construction and update vocabulary, re-exported from the graph
// substrate.
type (
	// Graph is a mutable labeled graph, directed or undirected.
	Graph = graph.Graph
	// NodeID identifies a node (dense ids 0..n-1).
	NodeID = graph.NodeID
	// Label is a node label.
	Label = graph.Label
	// Update is a unit update: one edge insertion or deletion.
	Update = graph.Update
	// Batch is a batch update ΔG: a sequence of unit updates.
	Batch = graph.Batch
	// Temporal is a temporal graph with a timestamped event log.
	Temporal = graph.Temporal
	// Event is a timestamped unit update.
	Event = graph.Event
)

// Update kinds.
const (
	// InsertEdge adds an edge.
	InsertEdge = graph.InsertEdge
	// DeleteEdge removes an edge.
	DeleteEdge = graph.DeleteEdge
)

// Infinity is the distance of unreachable nodes in SSSP results.
const Infinity = graph.Infinity

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int, directed bool) *Graph { return graph.New(n, directed) }

// NewTemporal builds a temporal graph from an event log.
func NewTemporal(n int, directed bool, labels []Label, events []Event) *Temporal {
	return graph.NewTemporal(n, directed, labels, events)
}

// SSSP computes single-source shortest distances with the batch algorithm
// (Dijkstra, Fig. 1 of the paper).
func SSSP(g *Graph, src NodeID) []int64 { return sssp.Dijkstra(g, src) }

// IncSSSP incrementally maintains single-source shortest distances; it is
// deducible from Dijkstra's algorithm (Fig. 5).
type IncSSSP = sssp.Inc

// NewIncSSSP computes the initial distances and returns the maintainer.
func NewIncSSSP(g *Graph, src NodeID) *IncSSSP { return sssp.NewInc(g, src) }

// ConnectedComponents labels every node with the minimum node id of its
// (weakly) connected component, using the batch fixpoint algorithm CC_fp.
func ConnectedComponents(g *Graph) []int64 { return cc.CCfp(g) }

// IncCC incrementally maintains component labels; it is weakly deducible
// from CC_fp, using timestamps (Example 5).
type IncCC = cc.Inc

// NewIncCC computes the initial labels and returns the maintainer.
func NewIncCC(g *Graph) *IncCC { return cc.NewInc(g) }

// Relation is a graph-simulation match relation over V × V_Q.
type Relation = sim.Relation

// Simulation computes the maximum graph simulation of pattern q in g with
// the batch algorithm Sim_fp (§5.1).
func Simulation(g, q *Graph) Relation { return sim.Simfp(g, q) }

// IncSim incrementally maintains the maximum simulation; it is weakly
// deducible from Sim_fp, with timestamps resolving cyclic patterns.
type IncSim = sim.Inc

// NewIncSim computes the initial relation and returns the maintainer.
func NewIncSim(g, q *Graph) *IncSim { return sim.NewInc(g, q) }

// DFSTree is a depth-first-search forest with preorder/postorder
// intervals.
type DFSTree = dfs.Tree

// DFS computes the canonical depth-first forest of g with the batch
// algorithm DFS_fp (§5.2).
func DFS(g *Graph) *DFSTree { return dfs.Run(g) }

// IncDFS incrementally maintains the canonical DFS forest; it is deducible
// from DFS_fp.
type IncDFS = dfs.Inc

// NewIncDFS computes the initial forest and returns the maintainer.
func NewIncDFS(g *Graph) *IncDFS { return dfs.NewInc(g) }

// LCCResult holds per-node degrees and triangle counts; Gamma(v) derives
// the local clustering coefficient.
type LCCResult = lcc.Result

// LCC computes local clustering coefficients of an undirected graph with
// the batch algorithm LCC_fp (§5.3).
func LCC(g *Graph) *LCCResult { return lcc.Run(g) }

// IncLCC incrementally maintains clustering coefficients; it is deducible
// from LCC_fp without any auxiliary structure.
type IncLCC = lcc.Inc

// NewIncLCC computes the initial coefficients and returns the maintainer.
func NewIncLCC(g *Graph) *IncLCC { return lcc.NewInc(g) }

// DualSimulation computes the maximum dual simulation — plain simulation
// plus the symmetric parent condition — an extension query class built
// directly on the generic fixpoint engine.
func DualSimulation(g, q *Graph) Relation { return sim.DualSim(g, q) }

// IncDualSim incrementally maintains the maximum dual simulation.
type IncDualSim = sim.IncDual

// NewIncDualSim computes the initial relation and returns the maintainer.
func NewIncDualSim(g, q *Graph) *IncDualSim { return sim.NewIncDual(g, q) }

// BCResult is a biconnectivity structure: articulation points and
// biconnected edge components.
type BCResult = bc.Result

// Biconnectivity computes articulation points and biconnected components
// of an undirected graph (the sixth fixpoint class named in §3).
func Biconnectivity(g *Graph) *BCResult { return bc.Run(g) }

// IncBC incrementally maintains the biconnectivity structure, re-deriving
// only the connected components touched by each batch.
type IncBC = bc.Inc

// NewIncBC computes the initial structure and returns the maintainer.
func NewIncBC(g *Graph) *IncBC { return bc.NewInc(g) }

// Serving layer, re-exported from internal/serve: host maintainers as a
// resident concurrent service with one single-writer apply loop for every
// maintainer, update coalescing/batching, snapshot-consistent concurrent
// reads, and an HTTP JSON API (see cmd/incgraphd).
//
// Maintainers themselves are NOT goroutine-safe (see the Inc* docs); the
// Serveable adapters below hand ownership of a maintainer to a Service's
// host, after which it must not be touched directly.
type (
	// Serveable adapts a maintainer to the serving layer.
	Serveable = serve.Serveable
	// ServeHost is one hosted class of a Service.
	ServeHost = serve.Host
	// ServeOptions tune a host's batching bounds and queue depth.
	ServeOptions = serve.Options
	// Service is a set of named hosts behind one HTTP API and one apply loop.
	Service = serve.Service
	// ServeView is one immutable published snapshot. Its Data is one of
	// the six view types below for the hosted classes.
	ServeView = serve.View
	// ServeSSSPView, ServeCCView, ServeSimView, ServeDFSView, ServeLCCView
	// and ServeBCView are what ServeView.Data holds for each class. Their
	// per-node vectors are paged, immutable and shared between epochs:
	// read them with Len, At and Slice (e.g.
	// v.Data.(incgraph.ServeSSSPView).Dist.At(int(node))); as JSON they
	// are plain arrays.
	ServeSSSPView = serve.SSSPView
	// ServeCCView is the published snapshot of a connected-components host.
	ServeCCView = serve.CCView
	// ServeSimView is the published snapshot of a graph-simulation host.
	ServeSimView = serve.SimView
	// ServeDFSView is the published snapshot of a DFS host.
	ServeDFSView = serve.DFSView
	// ServeLCCView is the published snapshot of a clustering-coefficient host.
	ServeLCCView = serve.LCCView
	// ServeBCView is the published snapshot of a biconnectivity host.
	ServeBCView = serve.BCView
	// ServeStats are per-host serving counters.
	ServeStats = serve.Stats
	// ServeApplyResult is a maintainer's per-apply report: affected area
	// plus the fixpoint cost-counter delta.
	ServeApplyResult = serve.ApplyResult
	// ServeApplyTrace is one recent-apply trace event (GET /debug/applies).
	ServeApplyTrace = serve.ApplyTrace
	// FixpointStats are the engine's cost counters, the quantities the
	// paper's relative-boundedness guarantee (Theorem 3) is stated over.
	FixpointStats = fixpoint.Stats
	// FixpointTracer is the engine's optional span hook: nil means the
	// untraced (zero-cost) path; internal/trace provides the standard
	// flight-recorder implementation.
	FixpointTracer = fixpoint.Tracer
	// TraceID is a W3C trace-context trace ID, carried from a request's
	// traceparent header through the apply pipeline.
	TraceID = trace.TraceID
	// TraceRecorder is the bounded flight recorder behind GET /debug/trace;
	// (*Service).Recorder exposes the service's own.
	TraceRecorder = trace.Recorder
)

// Durability layer, re-exported from internal/serve and internal/wal:
// write-ahead logging of every ingested batch, periodic checkpoints of
// graph + incremental state at consistent cuts, and crash recovery
// (checkpoint restore + WAL-tail replay, verified by certificate for sssp
// and cc and against a batch recompute for the other classes). See
// cmd/incgraphd's -data-dir.
type (
	// Durable owns a service's WAL and checkpoints; installed on a
	// Service it write-ahead-logs every update before submission.
	Durable = serve.Durable
	// DurableOptions tune the durability layer (fsync policy, checkpoint
	// cadence, retention).
	DurableOptions = serve.DurableOptions
	// Recovery is the loaded durable state of a data directory: restored
	// per-algo checkpoints plus the WAL tail to replay.
	Recovery = serve.Recovery
	// RecoveredAlgo is one algo's checkpointed graph and state.
	RecoveredAlgo = serve.RecoveredAlgo
	// WALOptions configure the write-ahead log (segment size, fsync
	// policy and interval, fault hooks).
	WALOptions = wal.Options
	// SyncPolicy selects when the WAL fsyncs (always/interval/never).
	SyncPolicy = wal.SyncPolicy
)

// WAL fsync policies.
const (
	// SyncAlways fsyncs before every append acknowledges (group-committed
	// across concurrent appenders) — full durability.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a timer: bounded data loss, higher throughput.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS.
	SyncNever = wal.SyncNever
)

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// LoadRecovery loads the durable state of a data directory: the latest
// readable checkpoint plus the position the WAL tail replays from.
// Returns an empty recovery (no error) for a fresh directory.
func LoadRecovery(dir string) (*Recovery, error) { return serve.LoadRecovery(dir) }

// VerifyRecovered checks every recovered maintainer on its recovered
// graph — sssp and cc by their certificates, the other classes against a
// batch recompute — repairing (and reporting) any that diverged. The
// returned slice names the diverged algos.
func VerifyRecovered(targets map[string]Serveable, rec *TraceRecorder) []string {
	return serve.VerifyRecovered(targets, rec)
}

// OpenDurable opens (or creates) the WAL in dir and installs the durable
// ingest path on svc. Recover and host the classes first: Open truncates
// the torn tail of the last segment and appends after it.
func OpenDurable(svc *Service, dir string, opt DurableOptions) (*Durable, error) {
	return serve.OpenDurable(svc, dir, opt)
}

// NewService returns an empty serving layer; register maintainers with
// (*Service).Host and serve (*Service).Handler.
func NewService() *Service { return serve.NewService() }

// AccessLog wraps an HTTP handler with per-request logging and W3C
// trace-context resolution (see cmd/incgraphd's -access-log).
func AccessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return serve.AccessLog(logger, next)
}

// The class registry, re-exported from internal/serve: every query class
// the service hosts, by name, with its constraints and its constructor.
type (
	// Class is one query class of the registry.
	Class = serve.Class
	// ClassParams are what a class's constructor reads besides the graph:
	// the source and the pattern.
	ClassParams = serve.Params
)

// Classes is the registry: sssp, cc, sim, dfs, lcc, bc.
var Classes = serve.Classes

// LookupClass returns the registry's class named name.
func LookupClass(name string) (Class, bool) { return serve.LookupClass(name) }

// ClassNames is the registry's names joined by "|".
func ClassNames() string { return serve.ClassNames() }

// ServeSSSP adapts an SSSP maintainer for serving. The view, and every
// recompute, uses the maintainer's own source; src must be that source
// (inc.Source()), and ServeSSSP panics if it is not.
func ServeSSSP(inc *IncSSSP, src NodeID) Serveable {
	if src != inc.Source() {
		panic(fmt.Sprintf("incgraph: ServeSSSP given source %d for a maintainer built on %d", src, inc.Source()))
	}
	return serve.SSSP(inc)
}

// ServeCC adapts a connected-components maintainer for serving.
func ServeCC(inc *IncCC) Serveable { return serve.CC(inc) }

// ServeSim adapts a graph-simulation maintainer for serving.
func ServeSim(inc *IncSim) Serveable { return serve.Sim(inc) }

// ServeDFS adapts a DFS maintainer for serving.
func ServeDFS(inc *IncDFS) Serveable { return serve.DFS(inc) }

// ServeLCC adapts a clustering-coefficient maintainer for serving.
func ServeLCC(inc *IncLCC) Serveable { return serve.LCC(inc) }

// ServeBC adapts a biconnectivity maintainer for serving.
func ServeBC(inc *IncBC) Serveable { return serve.BC(inc) }

// ReadGraph parses a graph in the labeled edge-list text format written by
// (*Graph).WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// ReadBatch parses an update batch: one update per line, "+ u v w" or
// "- u v".
func ReadBatch(r io.Reader) (Batch, error) { return graph.ReadBatch(r) }

// WriteBatch serializes an update batch in the ReadBatch format.
func WriteBatch(w io.Writer, b Batch) error { return graph.WriteBatch(w, b) }

// Workload helpers for experimentation, re-exported from the generator
// substrate. All are deterministic in the seed.

// PowerLawGraph generates a labeled preferential-attachment graph with the
// given average degree, the shape of real social networks.
func PowerLawGraph(seed int64, nodes, avgDeg int, directed bool) *Graph {
	return gen.Synthetic(seed, nodes, avgDeg, directed)
}

// GridGraph generates a w×h road-network-like directed grid.
func GridGraph(seed int64, w, h int) *Graph {
	return gen.Grid(newRNG(seed), w, h)
}

// RandomPattern generates a small connected labeled pattern for
// Simulation queries.
func RandomPattern(seed int64, nodes, edges, alphabet int) *Graph {
	return gen.Pattern(newRNG(seed), nodes, edges, alphabet)
}

// RandomUpdates samples a batch of count valid updates against g with the
// given insertion fraction.
func RandomUpdates(seed int64, g *Graph, count int, insertFraction float64) Batch {
	return gen.RandomUpdates(newRNG(seed), g, count, insertFraction)
}
