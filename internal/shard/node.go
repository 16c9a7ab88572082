package shard

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/wal"
)

// NodeConfig is what a node is started from: one field per value an
// incgraphd flag sets (named beside each field), the graph inputs and the
// logger.
type NodeConfig struct {
	// Algos are the hosted query classes, in order (-algos).
	Algos []string
	// Src is the source of the classes that take one (-src).
	Src int
	// Pattern reads the pattern graph (-pattern); it is called once for
	// each class that takes one, while that class is built.
	Pattern func() (*graph.Graph, error)
	// Input reads the whole graph (-graph or -gen). It is called only when
	// DataDir holds no checkpoint; a shard keeps its fragment of it.
	Input func() (*graph.Graph, error)

	// MaxBatch, MaxWait and Queue bound the apply loop's batches and its
	// submission queue (-max-batch, -max-wait, -queue); zero takes
	// serve.Options' default.
	MaxBatch int
	MaxWait  time.Duration
	Queue    int

	// DataDir makes the node durable (-data-dir); empty serves from memory.
	DataDir string
	// Sync and SyncInterval are the WAL's fsync policy and its cadence
	// under wal.SyncInterval (-fsync, -fsync-interval).
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	// CheckpointEvery checkpoints after this many ingested batches; 0
	// checkpoints only on Close (-checkpoint-every).
	CheckpointEvery int
	// VerifyRecovery checks what a start recovered and what a promotion
	// replayed (-verify-recovery).
	VerifyRecovery bool

	// ShardID and Shards make the node shard ShardID of a hash-partitioned
	// deployment of Shards (-shard-id, -shards); Shards 0 serves the whole
	// graph.
	ShardID, Shards int
	// ReplicaOf makes the node a warm replica of the primary at this base
	// URL (-replica-of). It needs DataDir.
	ReplicaOf string

	// Logger receives the node's log lines; nil discards them.
	Logger *slog.Logger
}

// Node is one incgraphd node: a serve.Service hosting the configured
// classes on one graph, with what the configuration adds around it.
// StartNode assembles it, Handler is its HTTP API and Close drains it.
//
// A start is serve.Start: every class is built on the newest checkpoint's
// graph in DataDir (Input is read only without one), restored or run,
// replayed to the end of the WAL and, with VerifyRecovery, verified — sssp
// and cc by certificate, the other classes against a batch recompute. Its
// phases are logged once ("started") and exported as
// incgraph_startup_seconds{phase}.
//
// With DataDir the node is durable: every accepted batch is write-ahead
// logged (fsync per Sync) before it is acknowledged, the graph, the stream
// position and each class's state are checkpointed every CheckpointEvery
// batches and on Close, and the WAL is served under /wal/ for replicas. A
// kill -9 therefore loses nothing acknowledged under wal.SyncAlways.
//
// With Shards > 0 the node serves one fragment of a partitioned
// deployment: it keeps only the edges the hash partitioner assigns to
// ShardID (every node id stays valid; a checkpoint holds the fragment
// already), answers /query over it, and mounts the shard API (/shard/info,
// /shard/eval/{algo}) that a Router drives cross-shard answers through.
//
// With ReplicaOf the node is a warm replica, with a Follower in place of
// the WAL replay: it first mirrors the primary's checkpoint and segments
// into DataDir, hosts its classes from that checkpoint, and submits every
// shipped record to its apply loop, one poll interval behind. Until POST
// /replica/promote it serves behind a Standby gate: POST /update and POST
// /shard/eval/{algo} answer 503, GET /query/{algo} answers from the
// published views stamped degraded, /replica/status reports the lag. A
// promotion stops the follower, verifies the replayed answers (a class
// that fails is repaired, not refused), opens the shipped log for writing
// (mounting /wal/) and drops the gate; the epochs do not move. Replication
// is asynchronous: updates acknowledged but not yet shipped are lost on
// promotion, which the epoch vector makes visible to the router.
type Node struct {
	svc      *serve.Service
	follower *Follower // a replica's; nil on a primary
	log      *slog.Logger
	handler  http.Handler
	// durable is set once the local WAL is open for writing: at the start
	// of a durable primary, by a promotion (on a request goroutine) on a
	// replica.
	durable atomic.Pointer[serve.Durable]
}

// openLog opens a durable node's WAL: serve.OpenDurable, which a test
// replaces to fail a promotion.
type openLog func(svc *serve.Service, dir string, opt serve.DurableOptions) (*serve.Durable, error)

// StartNode assembles and starts the node cfg describes. On an error it
// has closed whatever it opened.
func StartNode(cfg NodeConfig) (*Node, error) { return startNode(cfg, serve.OpenDurable) }

func startNode(cfg NodeConfig, open openLog) (*Node, error) {
	began := time.Now()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var part Partitioner
	if cfg.Shards > 0 {
		part = NewHashPartitioner(cfg.Shards)
	}
	replica := cfg.ReplicaOf != ""

	n := &Node{svc: serve.NewService(), log: logger}
	svc := n.svc
	// Name the flight recorder's process so a cluster-merged timeline
	// shows "shard-2" and "replica-2", not processes all called "incgraph".
	process := "incgraphd"
	switch {
	case replica && part != nil:
		process = fmt.Sprintf("replica-%d", cfg.ShardID)
	case replica:
		process = "replica"
	case part != nil:
		process = fmt.Sprintf("shard-%d", cfg.ShardID)
	}
	svc.Recorder().SetProcess(process)

	// A replica first mirrors its primary's checkpoint and segments, so it
	// starts from the newest durable cut.
	if replica {
		if err := bootstrapPull(logger, cfg.ReplicaOf, cfg.DataDir); err != nil {
			svc.Close()
			return nil, err
		}
	}
	opt := serve.Options{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait, Queue: cfg.Queue}
	// Every apply is traced through this hook at debug level: host, epoch,
	// batch size, coalescing, |AFF|, and the latency split — the same
	// fields /debug/applies retains.
	opt.OnApply = func(t serve.ApplyTrace) {
		logger.Debug("apply",
			"host", t.Algo,
			"epoch", t.Epoch,
			"batch_size", t.RawUpdates,
			"net_size", t.NetUpdates,
			"affected", t.Affected,
			"apply_latency", time.Duration(t.ApplyNanos),
			"queue_wait", time.Duration(t.QueueWaitNanos),
			"trace", t.TraceID)
	}
	// What the started line and the shard API report of the graph, read as
	// each class is built on it: the classes own it from then on.
	var nodes, edges int
	var directed bool
	rec, st, err := serve.Start(svc, cfg.DataDir, cfg.Algos,
		func(algo string, g *graph.Graph) (serve.Serveable, error) {
			nodes, edges, directed = g.NumNodes(), g.NumEdges(), g.Directed()
			class, _ := serve.LookupClass(algo)
			p := serve.Params{Src: cfg.Src}
			if class.Pattern {
				var err error
				if p.Pattern, err = cfg.Pattern(); err != nil {
					return nil, err
				}
			}
			return class.New(g, p)
		},
		func() (*graph.Graph, error) {
			base, err := cfg.Input()
			if err != nil || part == nil {
				return base, err
			}
			// The partitioner here must match the router's.
			full := base.NumEdges()
			base = FilterGraph(base, part, cfg.ShardID)
			logger.Info("sharded", "shard", cfg.ShardID, "shards", cfg.Shards,
				"fragment_edges", base.NumEdges(), "full_edges", full)
			return base, nil
		},
		opt, replica, cfg.VerifyRecovery)
	if err != nil {
		svc.Close()
		return nil, err
	}
	for i, algo := range cfg.Algos {
		logger.Info("hosted", "host", algo, "batch_init", st.Build[i].Round(time.Microsecond),
			"from_checkpoint", len(rec.Algos[algo].State) > 0,
			"verified_by", st.Verify[i].By, "verify", st.Verify[i].Took.Round(time.Microsecond))
	}
	if len(st.Diverged) > 0 {
		var faults []string
		for i, algo := range cfg.Algos {
			if err := st.Verify[i].Err; err != nil {
				faults = append(faults, algo+": "+err.Error())
			}
		}
		logger.Warn("recovery: replayed state diverged from batch recompute; repaired",
			"algos", strings.Join(st.Diverged, ","), "certificates", strings.Join(faults, "; "))
	}
	if cfg.DataDir != "" && !replica {
		logger.Info("recovered", "dir", cfg.DataDir, "checkpoint_epoch", rec.CheckpointEpoch,
			"replayed_records", rec.Replayed, "divergent", len(st.Diverged))
	}

	openDurable := func(records, diverged int) error {
		// Truncates a torn tail frame (a primary that died mid-ship).
		d, err := open(svc, cfg.DataDir, serve.DurableOptions{
			WAL:             wal.Options{Policy: cfg.Sync, Interval: cfg.SyncInterval},
			CheckpointEvery: cfg.CheckpointEvery,
		})
		if err != nil {
			return err
		}
		d.RecordRecovery(records, diverged)
		svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
		n.durable.Store(d)
		return nil
	}
	// A primary's surface is the service's handler; a replica's is the same
	// handler behind the standby gate until it is promoted.
	var following func() bool
	handler := svc.Handler
	switch {
	case replica:
		f := NewFollower(FollowerOptions{
			Source: cfg.ReplicaOf, Dir: cfg.DataDir, Service: svc, ReplayFrom: rec.ReplayFrom,
			Logf: func(format string, args ...any) { logger.Debug(fmt.Sprintf(format, args...)) },
		})
		n.follower = f
		go f.Run()
		logger.Info("following", "primary", cfg.ReplicaOf, "dir", cfg.DataDir,
			"replay_from", rec.ReplayFrom, "checkpoint_epoch", rec.CheckpointEpoch)
		// Promotion, run with the follower stopped and every shipped record
		// applied: verify the replayed answers inside the service's apply
		// loop, then open the shipped log — now the authoritative
		// continuation.
		standby := NewStandby(svc, f, func() error {
			divergent := 0
			for _, h := range svc.Hosts() {
				if !cfg.VerifyRecovery {
					break
				}
				if diverged, err := h.Verify(); err != nil {
					logger.Warn("promotion: verification failed; host keeps its last good view", "err", err)
				} else if diverged {
					divergent++
					logger.Warn("promotion: replayed state failed its certificate or differed from batch recompute; repaired", "algo", h.Algo())
				}
			}
			if err := openDurable(int(f.Status().Records), divergent); err != nil {
				logger.Error("promotion failed", "err", err)
				return err
			}
			logger.Info("promoted", "epochs", fmt.Sprint(f.Epochs()))
			return nil
		})
		following, handler = standby.Following, standby.Handler
	case cfg.DataDir != "":
		if err := openDurable(rec.Replayed, len(st.Diverged)); err != nil {
			svc.Close()
			return nil, err
		}
	}
	if part != nil {
		MountShardAPI(svc, part, cfg.ShardID, nodes, directed, following)
	}
	n.handler = handler()

	started := []any{"took", time.Since(began).Round(time.Microsecond), "from_checkpoint", len(rec.Algos) > 0,
		"nodes", nodes, "edges", edges}
	for _, p := range st.Phases {
		started = append(started, p.Name, p.Took.Round(time.Microsecond))
	}
	logger.Info("started", started...)
	return n, nil
}

// bootstrapPull mirrors the primary's checkpoint and segment bytes into
// the replica's data directory before recovery, so a replica started late
// begins from the newest durable cut instead of replaying from genesis.
// Best effort — a briefly unreachable primary just means starting from
// local state.
func bootstrapPull(logger *slog.Logger, primary, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica data dir: %w", err)
	}
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = PullWAL(ctx, nil, primary, dir)
		cancel()
		if err == nil {
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	logger.Warn("replica bootstrap: primary unreachable; starting from local state", "err", err)
	return nil
}

// Handler is the node's HTTP API: the service's routes, the shard API in
// shard mode, /wal/ on a durable node, and on a replica the standby gate
// with /replica/status and POST /replica/promote.
func (n *Node) Handler() http.Handler { return n.handler }

// Service is the service the node hosts its classes on.
func (n *Node) Service() *serve.Service { return n.svc }

// Close drains the node once its handler has stopped serving: it stops a
// replica's follower, checkpoints a durable node at the drained cut (the
// checkpoint queues behind every accepted submission, so it covers exactly
// what was acknowledged), closes the service and then the WAL, and logs
// each host's totals.
func (n *Node) Close() {
	if n.follower != nil {
		n.follower.Stop()
	}
	d := n.durable.Load()
	if d != nil {
		t0 := time.Now()
		if err := d.Checkpoint(); err != nil {
			n.log.Warn("checkpoint on drain", "err", err)
		} else {
			n.log.Info("checkpoint on drain", "took", time.Since(t0).Round(time.Microsecond))
		}
	}
	n.svc.Close()
	if d != nil {
		if err := d.Close(); err != nil {
			n.log.Warn("wal close", "err", err)
		}
	}
	for i, h := range n.svc.Hosts() {
		st := h.Stats()
		if i == 0 {
			// The stream fields are the service's, the same on every host.
			n.log.Info("drained",
				"updates", st.UpdatesApplied,
				"batches", st.BatchesApplied,
				"coalesced", st.UpdatesCoalesced)
		}
		n.log.Info("drained",
			"host", st.Algo,
			"epoch", st.Epoch,
			"mean_apply", time.Duration(st.MeanApplyNanos).Round(time.Microsecond),
			"last_apply", time.Duration(st.LastApplyNanos).Round(time.Microsecond))
	}
}
