// Command incgraphd is a resident incremental-graph service: it pays the
// batch fixpoint cost once at startup, then keeps the hosted query
// classes' answers current while ingesting a stream of update batches
// over HTTP — the serving setting where incrementalization pays off.
//
// Usage:
//
//	incgraphd -graph g.txt -algos sssp,cc [-src 0] [-listen :8356]
//	incgraphd -gen powerlaw -nodes 10000 -deg 8 -algos cc,lcc,bc
//	incgraphd -graph g.txt -algos sim -pattern q.txt
//	incgraphd -graph g.txt -algos cc -log-level debug -debug-addr :6060
//	incgraphd -graph g.txt -algos cc -access-log
//	incgraphd -graph g.txt -algos sssp,cc -data-dir /var/lib/incgraph
//	incgraphd -graph g.txt -algos sssp,cc -shard-id 0 -shards 2 -data-dir d0
//	incgraphd -graph g.txt -algos sssp,cc -shard-id 0 -shards 2 \
//	    -replica-of http://127.0.0.1:8356 -data-dir d0r
//
// The full flag reference lives in README.md ("incgraphd flag
// reference"); a test diffs that table against the flag definitions here,
// so the two cannot drift.
//
// The HTTP API is serve.Service's: its Handler's doc comment lists every
// route (a test holds that list to the routes registered). Every POST
// /update reaches every hosted class. Shard mode and a replica add the
// routes below.
//
// The daemon keeps a bounded flight recorder of spans — batch lifecycle
// (queue wait, coalesce, apply, publish) plus the fixpoint engine's h and
// resume phases with per-round events — dumped by GET /debug/trace in a
// format Perfetto loads directly. POST /update accepts a W3C traceparent
// header; the trace ID rides through the submission queue onto the apply
// and shows up in the spans, the debug log, and the access log, so one
// request can be followed end to end. -access-log turns on one slog line
// per HTTP request (method, path, status, duration, trace ID).
//
// With -debug-addr set, a second listener serves net/http/pprof profiles
// and expvar counters (/debug/pprof/, /debug/vars) — kept off the main
// listener so profiling endpoints are never exposed on the service port.
//
// The hosted maintainers share one graph, whose sorted rows are its one
// adjacency, each keeping only its own state. One apply loop per service
// writes to all of them: updates are validated into one queue, coalesced
// and netted once, applied to the graph once, and every class
// then repairs from the round's list of applied updates. On SIGINT/SIGTERM
// the daemon stops accepting requests, drains the queue, and exits.
//
// With -data-dir set the daemon is durable: every accepted update batch
// is write-ahead-logged (fsync policy per -fsync) before it is
// acknowledged, and the one graph, the stream position and each class's
// incremental state are checkpointed every -checkpoint-every ingests and
// on SIGTERM. Every start is incgraph.Start (internal/serve/start.go): each
// class is built on the checkpoint's graph (-graph or -gen is read only
// without one), restored — a class the checkpoint holds state for runs no
// batch algorithm — replayed to the end of the WAL and, unless
// -verify-recovery=false, verified: sssp and cc by certificate, the other
// classes against a batch recompute. A kill -9 therefore loses nothing
// acknowledged under -fsync always. How long each phase of the start took
// is logged once ("started") and exported as
// incgraph_startup_seconds{phase}.
//
// With -shard-id i -shards n the daemon serves one fragment of a
// partitioned deployment: it keeps only the edges the hash partitioner
// assigns to shard i (all node ids remain valid), answers /query over
// its fragment, and mounts the shard-side exchange API (/shard/info,
// /shard/eval/{algo}) that the incrouter front-end drives cross-shard
// answers through. With -data-dir the fragment's WAL is additionally
// exposed under /wal/ for log-shipping replicas.
//
// With -replica-of URL the daemon is a warm replica — the same daemon,
// with a follower in place of the WAL replay: it hosts its maintainers
// from the checkpoint it pulled, ships the primary's WAL segments into
// its own -data-dir (required) and submits every record to its service's
// apply loop, staying one poll interval behind. Until POST
// /replica/promote it serves the whole API behind a gate: POST /update
// and POST /shard/eval/{algo} answer 503, GET /query/{algo} answers from
// the published views stamped degraded (the router's fallback while a
// primary's breaker is open), /replica/status reports the lag, and
// /stats, /metrics, /debug/... are the hosts' own. Promotion stops the
// follower, verifies the replayed answers, opens the local WAL (mounting
// /wal/) and drops the gate; the epochs do not move. Replication is
// asynchronous: updates acknowledged but not yet shipped are lost on
// promotion, which the epoch vector makes visible to the router.
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on the -debug-addr listener
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr listener
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"incgraph"
	"incgraph/internal/shard"
)

// cliFlags holds every incgraphd flag value. newFlags registers the
// definitions on a caller-supplied FlagSet, so tests instantiate exactly
// the flag set main parses — the README flag-reference test diffs its
// table against these definitions.
type cliFlags struct {
	listen    string
	graphPath string
	algos     string
	algoList  []string // -algos, parsed by validateFlags
	src       int
	pattern   string

	genKind   string
	genNodes  int
	genDeg    int
	genDirect bool
	genSeed   int64

	maxBatch int
	maxWait  time.Duration
	queue    int

	logLevel  string
	debugAddr string
	accessLog bool

	dataDir       string
	fsync         string
	syncPolicy    incgraph.SyncPolicy // -fsync, parsed by validateFlags
	fsyncInterval time.Duration
	ckptEvery     int
	verifyRec     bool

	shardID   int
	shards    int
	replicaOf string
}

// newFlags defines the daemon's flags on fs and returns the struct their
// parsed values land in.
func newFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.StringVar(&c.listen, "listen", ":8356", "HTTP listen address")
	fs.StringVar(&c.graphPath, "graph", "", "graph file (labeled edge-list format)")
	fs.StringVar(&c.algos, "algos", "", "comma-separated query classes to host: "+incgraph.ClassNames())
	fs.IntVar(&c.src, "src", 0, "source node (sssp)")
	fs.StringVar(&c.pattern, "pattern", "", "pattern graph file (sim)")

	fs.StringVar(&c.genKind, "gen", "", "host a synthetic graph instead of -graph: powerlaw|grid")
	fs.IntVar(&c.genNodes, "nodes", 1000, "synthetic node count")
	fs.IntVar(&c.genDeg, "deg", 8, "synthetic average degree")
	fs.BoolVar(&c.genDirect, "directed", false, "synthetic graph directed")
	fs.Int64Var(&c.genSeed, "seed", 1, "synthetic seed")

	fs.IntVar(&c.maxBatch, "max-batch", 256, "apply a batch once it holds this many updates")
	fs.DurationVar(&c.maxWait, "max-wait", 2*time.Millisecond, "upper bound on how long a batch stays open while submissions keep arriving; an idle host applies at once")
	fs.IntVar(&c.queue, "queue", 1024, "submission queue depth (one queue for every hosted class)")

	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug|info|warn|error (debug logs every apply)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional second listener for pprof and expvar (e.g. :6060)")
	fs.BoolVar(&c.accessLog, "access-log", false, "log every HTTP request (method, path, status, duration, trace ID)")

	fs.StringVar(&c.dataDir, "data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy: always|interval|never")
	fs.DurationVar(&c.fsyncInterval, "fsync-interval", 5*time.Millisecond, "fsync cadence under -fsync interval")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 1024, "checkpoint after this many ingested batches (0: only on shutdown)")
	fs.BoolVar(&c.verifyRec, "verify-recovery", true, "verify recovered state on startup: sssp and cc by certificate, the other classes against a batch recompute")

	fs.IntVar(&c.shardID, "shard-id", -1, "serve one fragment of a partitioned deployment: this daemon's shard id (requires -shards)")
	fs.IntVar(&c.shards, "shards", 0, "total shard count of the partitioned deployment (with -shard-id)")
	fs.StringVar(&c.replicaOf, "replica-of", "", "run as a warm replica of the primary at this base URL, shipping and replaying its WAL (requires -data-dir)")
	return c
}

// validateFlags rejects flag combinations that parse but cannot mean
// anything, before any graph is loaded or listener bound. main exits 2
// (usage) on a validation error, so misconfiguration is distinguishable
// from runtime failure.
func validateFlags(c *cliFlags) error {
	if c.shards < 0 {
		return fmt.Errorf("-shards must be >= 1, got %d", c.shards)
	}
	if (c.shardID >= 0) != (c.shards > 0) {
		return fmt.Errorf("-shard-id and -shards must be set together (got -shard-id %d, -shards %d)", c.shardID, c.shards)
	}
	if c.shards > 0 && c.shardID >= c.shards {
		return fmt.Errorf("-shard-id %d out of range for -shards %d", c.shardID, c.shards)
	}
	if c.replicaOf != "" && c.dataDir == "" {
		return fmt.Errorf("-replica-of requires -data-dir (the shipped WAL needs a home)")
	}
	// Parsed here for both roles: a replica opens its log only at promotion,
	// far too late to learn the value was bad.
	var err error
	if c.syncPolicy, err = incgraph.ParseSyncPolicy(c.fsync); err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	// -algos is checked against the class registry, which builds them.
	for _, algo := range strings.Split(c.algos, ",") {
		algo = strings.TrimSpace(algo)
		_, known := incgraph.LookupClass(algo)
		switch {
		case algo == "":
		case !known:
			return fmt.Errorf("unknown algo %q in -algos (want %s)", algo, incgraph.ClassNames())
		case slices.Contains(c.algoList, algo):
			return fmt.Errorf("-algos names %s twice", algo)
		default:
			c.algoList = append(c.algoList, algo)
		}
	}
	if len(c.algoList) == 0 {
		return fmt.Errorf("missing -algos (e.g. -algos sssp,cc)")
	}
	for _, algo := range c.algoList {
		if class, _ := incgraph.LookupClass(algo); class.Pattern && c.pattern == "" {
			return fmt.Errorf("%s needs -pattern", algo)
		}
	}
	return nil
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(c); err != nil {
		fmt.Fprintln(os.Stderr, "incgraphd:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(c.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incgraphd:", err)
		os.Exit(2)
	}
	if err := run(logger, c); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger at the requested level, writing
// structured key=val lines to stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// run is the daemon's one lifecycle, for a primary and a warm replica
// alike: start the service (incgraph.Start), serve, and drain on a signal.
func run(logger *slog.Logger, c *cliFlags) error {
	began := time.Now()
	var part shard.Partitioner
	if c.shards > 0 {
		part = shard.NewHashPartitioner(c.shards)
	}
	replica := c.replicaOf != ""

	svc := incgraph.NewService()
	// Name the flight recorder's process so a cluster-merged timeline
	// shows "shard-2" and "replica-2", not processes all called "incgraph".
	process := "incgraphd"
	switch {
	case replica && part != nil:
		process = fmt.Sprintf("replica-%d", c.shardID)
	case replica:
		process = "replica"
	case part != nil:
		process = fmt.Sprintf("shard-%d", c.shardID)
	}
	svc.Recorder().SetProcess(process)

	// A replica first mirrors its primary's checkpoint and segments, so it
	// starts from the newest durable cut.
	if replica {
		if err := bootstrapPull(logger, c); err != nil {
			return err
		}
	}
	opt := incgraph.ServeOptions{MaxBatch: c.maxBatch, MaxWait: c.maxWait, Queue: c.queue}
	// Every apply is traced through this hook at debug level: host, epoch,
	// batch size, coalescing, |AFF|, and the latency split — the same
	// fields /debug/applies retains.
	opt.OnApply = func(t incgraph.ServeApplyTrace) {
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
	// What the serving line and the shard API report of the graph, read as
	// each class is built on it: the classes own it from then on.
	var nodes, edges int
	var directed bool
	rec, st, err := incgraph.Start(svc, c.dataDir, c.algoList,
		func(algo string, g *incgraph.Graph) (incgraph.Serveable, error) {
			nodes, edges, directed = g.NumNodes(), g.NumEdges(), g.Directed()
			class, _ := incgraph.LookupClass(algo)
			p := incgraph.ClassParams{Src: c.src}
			if class.Pattern {
				var err error
				if p.Pattern, err = loadGraph(c.pattern, "", 0, 0, 0, false); err != nil {
					return nil, err
				}
			}
			return class.New(g, p)
		},
		func() (*incgraph.Graph, error) {
			base, err := loadGraph(c.graphPath, c.genKind, c.genSeed, c.genNodes, c.genDeg, c.genDirect)
			if err != nil || part == nil {
				return base, err
			}
			// Shard mode: the daemon serves one fragment. Filtering keeps
			// every node id valid (views stay globally indexed) but drops
			// edges owned by other shards; the partitioner here must match
			// the router's. A checkpoint holds the fragment already.
			full := base.NumEdges()
			base = shard.FilterGraph(base, part, c.shardID)
			logger.Info("sharded", "shard", c.shardID, "shards", c.shards,
				"fragment_edges", base.NumEdges(), "full_edges", full)
			return base, nil
		},
		opt, replica, c.verifyRec)
	if err != nil {
		svc.Close()
		return err
	}
	for i, algo := range c.algoList {
		logger.Info("hosted", "host", algo, "batch_init", st.Build[i].Round(time.Microsecond),
			"from_checkpoint", len(rec.Algos[algo].State) > 0,
			"verified_by", st.Verify[i].By, "verify", st.Verify[i].Took.Round(time.Microsecond))
	}
	if len(st.Diverged) > 0 {
		var faults []string
		for i, algo := range c.algoList {
			if err := st.Verify[i].Err; err != nil {
				faults = append(faults, algo+": "+err.Error())
			}
		}
		logger.Warn("recovery: replayed state diverged from batch recompute; repaired",
			"algos", strings.Join(st.Diverged, ","), "certificates", strings.Join(faults, "; "))
	}
	if c.dataDir != "" && !replica {
		logger.Info("recovered", "dir", c.dataDir, "checkpoint_epoch", rec.CheckpointEpoch,
			"replayed_records", rec.Replayed, "divergent", len(st.Diverged))
	}

	// durable is set once the local WAL is open for writing, and served
	// under /wal/ for replicas to follow: at start-up on a primary, by a
	// promotion (on a request goroutine) on a replica.
	var durable atomic.Pointer[incgraph.Durable]
	openDurable := func(records, diverged int) error {
		// Truncates a torn tail frame (a primary that died mid-ship).
		d, err := incgraph.OpenDurable(svc, c.dataDir, incgraph.DurableOptions{
			WAL:             incgraph.WALOptions{Policy: c.syncPolicy, Interval: c.fsyncInterval},
			CheckpointEvery: c.ckptEvery,
		})
		if err != nil {
			return err
		}
		d.RecordRecovery(records, diverged)
		svc.Mount("/wal/", http.StripPrefix("/wal", d.Log().StreamHandler()))
		durable.Store(d)
		return nil
	}
	// A primary's surface is the service's handler; a replica's is the same
	// handler behind the standby gate until it is promoted.
	var follower *shard.Follower
	var following func() bool
	handler := svc.Handler
	switch {
	case replica:
		follower = shard.NewFollower(shard.FollowerOptions{
			Source: c.replicaOf, Dir: c.dataDir, Service: svc, ReplayFrom: rec.ReplayFrom,
			Logf: func(format string, args ...any) { logger.Debug(fmt.Sprintf(format, args...)) },
		})
		go follower.Run()
		logger.Info("following", "primary", c.replicaOf, "dir", c.dataDir,
			"replay_from", rec.ReplayFrom, "checkpoint_epoch", rec.CheckpointEpoch)
		// Promotion, run with the follower stopped and every shipped record
		// applied: verify the replayed answers inside the service's apply loop,
		// then open the shipped log — now the authoritative continuation.
		standby := shard.NewStandby(svc, follower, func() error {
			divergent := 0
			for _, h := range svc.Hosts() {
				if !c.verifyRec {
					break
				}
				if diverged, err := h.Verify(); err != nil {
					logger.Warn("promotion: verification failed; host keeps its last good view", "err", err)
				} else if diverged {
					divergent++
					logger.Warn("promotion: replayed state failed its certificate or differed from batch recompute; repaired", "algo", h.Algo())
				}
			}
			if err := openDurable(int(follower.Status().Records), divergent); err != nil {
				logger.Error("promotion failed", "err", err)
				return err
			}
			logger.Info("promoted", "epochs", fmt.Sprint(follower.Epochs()))
			return nil
		})
		following, handler = standby.Following, standby.Handler
	case c.dataDir != "":
		if err := openDurable(rec.Replayed, len(st.Diverged)); err != nil {
			svc.Close()
			return err
		}
	}
	// Shard-mode daemons expose the exchange API the router drives.
	if part != nil {
		shard.MountShardAPI(svc, part, c.shardID, nodes, directed, following)
	}

	if c.debugAddr != "" {
		// pprof and expvar registered themselves on the default mux via
		// their imports; serve it on the side listener only.
		go func() {
			logger.Info("debug listener", "addr", c.debugAddr)
			if err := http.ListenAndServe(c.debugAddr, http.DefaultServeMux); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	started := []any{"took", time.Since(began).Round(time.Microsecond), "from_checkpoint", len(rec.Algos) > 0}
	for _, p := range st.Phases {
		started = append(started, p.Name, p.Took.Round(time.Microsecond))
	}
	logger.Info("started", started...)

	api := handler()
	if c.accessLog {
		api = incgraph.AccessLog(logger, api)
	}
	srv := &http.Server{Addr: c.listen, Handler: api}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "nodes", nodes, "edges", edges, "addr", c.listen)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
		// Graceful shutdown: stop taking requests first, then checkpoint
		// at the drained cut (the checkpoint job queues behind every
		// accepted submission, so it covers exactly what was
		// acknowledged), then drain and stop the apply loop.
		logger.Info("shutting down: draining the apply queue")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
	}
	if follower != nil {
		follower.Stop()
	}
	d := durable.Load()
	if d != nil && serveErr == nil {
		t0 := time.Now()
		if err := d.Checkpoint(); err != nil {
			logger.Warn("checkpoint on drain", "err", err)
		} else {
			logger.Info("checkpoint on drain", "took", time.Since(t0).Round(time.Microsecond))
		}
	}
	svc.Close()
	if d != nil {
		if err := d.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	for i, h := range svc.Hosts() {
		st := h.Stats()
		if i == 0 {
			// The stream fields are the service's, the same on every host.
			logger.Info("drained",
				"updates", st.UpdatesApplied,
				"batches", st.BatchesApplied,
				"coalesced", st.UpdatesCoalesced)
		}
		logger.Info("drained",
			"host", st.Algo,
			"epoch", st.Epoch,
			"mean_apply", time.Duration(st.MeanApplyNanos).Round(time.Microsecond),
			"last_apply", time.Duration(st.LastApplyNanos).Round(time.Microsecond))
	}
	return serveErr
}

// bootstrapPull mirrors the primary's checkpoint and segment bytes into
// the replica's data directory before recovery, so a replica started late
// begins from the newest durable cut instead of replaying from genesis.
// Best effort — a briefly unreachable primary just means starting from
// local state.
func bootstrapPull(logger *slog.Logger, c *cliFlags) error {
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return fmt.Errorf("replica data dir: %w", err)
	}
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = shard.PullWAL(ctx, nil, c.replicaOf, c.dataDir)
		cancel()
		if err == nil {
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	logger.Warn("replica bootstrap: primary unreachable; starting from local state", "err", err)
	return nil
}

func loadGraph(path, genKind string, seed int64, nodes, deg int, directed bool) (*incgraph.Graph, error) {
	switch {
	case genKind == "powerlaw":
		return incgraph.PowerLawGraph(seed, nodes, deg, directed), nil
	case genKind == "grid":
		side := 1
		for side*side < nodes {
			side++
		}
		return incgraph.GridGraph(seed, side, side), nil
	case genKind != "":
		return nil, fmt.Errorf("unknown generator %q", genKind)
	case path == "":
		return nil, fmt.Errorf("missing -graph (or -gen)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incgraph.ReadGraph(f)
}
