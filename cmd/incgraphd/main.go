// Command incgraphd is a resident incremental-graph service: it pays the
// batch fixpoint cost once at startup, then keeps the hosted query
// classes' answers current while ingesting update batches over HTTP.
//
// Usage:
//
//	incgraphd (-graph g.txt | -gen powerlaw|grid) -algos sssp,cc [flags]
//
// README.md's "incgraphd flag reference" lists every flag (a test diffs it
// against newFlags). The node — durability, shard mode, a replica and its
// promotion — is shard.StartNode's (see shard.Node), and its routes are
// serve.Service.Handler's, whose doc comment lists them. This command adds
// the process: the listener, -access-log's request lines, -debug-addr's
// pprof and expvar listener (kept off the service port), and on
// SIGINT/SIGTERM a drain, Node.Close, once the listener stops.
package main

import (
	"context"
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
	"syscall"
	"time"

	"incgraph"
	"incgraph/internal/shard"
)

// cliFlags holds every flag value: the node's in its NodeConfig (Algos,
// Sync and Logger set by validateFlags), the inputs' and the process's
// beside it. Tests build it through newFlags, exactly as main does.
type cliFlags struct {
	shard.NodeConfig
	listen, graphPath, algos, pattern, fsync, genKind, logLevel, debugAddr string
	genNodes, genDeg                                                       int
	genSeed                                                                int64
	genDirect, accessLog                                                   bool
}

// newFlags defines the daemon's flags on fs and returns where they land.
func newFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.StringVar(&c.listen, "listen", ":8356", "HTTP listen address")
	fs.StringVar(&c.graphPath, "graph", "", "graph file (labeled edge-list format)")
	fs.StringVar(&c.algos, "algos", "", "comma-separated query classes to host: "+incgraph.ClassNames())
	fs.IntVar(&c.Src, "src", 0, "source node (sssp)")
	fs.StringVar(&c.pattern, "pattern", "", "pattern graph file (sim)")
	fs.StringVar(&c.genKind, "gen", "", "host a synthetic graph instead of -graph: powerlaw|grid")
	fs.IntVar(&c.genNodes, "nodes", 1000, "synthetic node count")
	fs.IntVar(&c.genDeg, "deg", 8, "synthetic average degree")
	fs.BoolVar(&c.genDirect, "directed", false, "synthetic graph directed")
	fs.Int64Var(&c.genSeed, "seed", 1, "synthetic seed")
	fs.IntVar(&c.MaxBatch, "max-batch", 256, "apply a batch once it holds this many updates")
	fs.DurationVar(&c.MaxWait, "max-wait", 2*time.Millisecond, "upper bound on how long a batch stays open while submissions keep arriving; an idle host applies at once")
	fs.IntVar(&c.Queue, "queue", 1024, "submission queue depth (one queue for every hosted class)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug|info|warn|error (debug logs every apply)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional second listener for pprof and expvar (e.g. :6060)")
	fs.BoolVar(&c.accessLog, "access-log", false, "log every HTTP request (method, path, status, duration, trace ID)")
	fs.StringVar(&c.DataDir, "data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy: always|interval|never")
	fs.DurationVar(&c.SyncInterval, "fsync-interval", 5*time.Millisecond, "fsync cadence under -fsync interval")
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 1024, "checkpoint after this many ingested batches (0: only on shutdown)")
	fs.BoolVar(&c.VerifyRecovery, "verify-recovery", true, "verify recovered state on startup: sssp and cc by certificate, the other classes against a batch recompute")
	fs.IntVar(&c.ShardID, "shard-id", -1, "serve one fragment of a partitioned deployment: this daemon's shard id (requires -shards)")
	fs.IntVar(&c.Shards, "shards", 0, "total shard count of the partitioned deployment (with -shard-id)")
	fs.StringVar(&c.ReplicaOf, "replica-of", "", "run as a warm replica of the primary at this base URL, shipping and replaying its WAL (requires -data-dir)")
	return c
}

// validateFlags rejects flag combinations that parse but cannot mean
// anything, before any graph is loaded or listener bound: main exits 2
// (usage) on them, apart from a runtime failure's 1.
func validateFlags(c *cliFlags) error {
	if c.Shards < 0 {
		return fmt.Errorf("-shards must be >= 1, got %d", c.Shards)
	}
	if (c.ShardID >= 0) != (c.Shards > 0) {
		return fmt.Errorf("-shard-id and -shards must be set together (got -shard-id %d, -shards %d)", c.ShardID, c.Shards)
	}
	if c.Shards > 0 && c.ShardID >= c.Shards {
		return fmt.Errorf("-shard-id %d out of range for -shards %d", c.ShardID, c.Shards)
	}
	if c.ReplicaOf != "" && c.DataDir == "" {
		return fmt.Errorf("-replica-of requires -data-dir (the shipped WAL needs a home)")
	}
	// Parsed here for both roles: a replica opens its log only at promotion,
	// far too late to learn the value was bad.
	var err error
	if c.Sync, err = incgraph.ParseSyncPolicy(c.fsync); err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(c.logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", c.logLevel)
	}
	c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	// -algos is checked against the class registry, which builds them.
	for _, algo := range strings.Split(c.algos, ",") {
		algo = strings.TrimSpace(algo)
		class, known := incgraph.LookupClass(algo)
		switch {
		case algo == "":
		case !known:
			return fmt.Errorf("unknown algo %q in -algos (want %s)", algo, incgraph.ClassNames())
		case slices.Contains(c.Algos, algo):
			return fmt.Errorf("-algos names %s twice", algo)
		case class.Pattern && c.pattern == "":
			return fmt.Errorf("%s needs -pattern", algo)
		default:
			c.Algos = append(c.Algos, algo)
		}
	}
	if len(c.Algos) == 0 {
		return fmt.Errorf("missing -algos (e.g. -algos sssp,cc)")
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
	logger := c.Logger
	c.Input = func() (*incgraph.Graph, error) {
		return loadGraph(c.graphPath, c.genKind, c.genSeed, c.genNodes, c.genDeg, c.genDirect)
	}
	c.Pattern = func() (*incgraph.Graph, error) { return loadGraph(c.pattern, "", 0, 0, 0, false) }
	node, err := shard.StartNode(c.NodeConfig)
	if err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
	if c.debugAddr != "" { // pprof and expvar registered on the default mux
		logger.Info("debug listener", "addr", c.debugAddr)
		go func() { logger.Error("debug listener failed", "err", http.ListenAndServe(c.debugAddr, nil)) }()
	}
	api := node.Handler()
	if c.accessLog {
		api = incgraph.AccessLog(logger, api)
	}
	srv := &http.Server{Addr: c.listen, Handler: api}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	logger.Info("serving", "addr", c.listen)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err = <-errc:
	case <-ctx.Done():
		// Stop taking requests first, so the drain's checkpoint covers
		// exactly what was acknowledged.
		logger.Info("shutting down: draining the apply queue")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		cancel()
	}
	stop()
	node.Close()
	if err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
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
