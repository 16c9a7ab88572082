// Command incrouter is the front-end of a sharded incgraph deployment:
// a stateless process that owns the partitioner, splits every update
// batch into per-shard sub-batches, fans them out to shard daemons, and
// assembles cross-shard query answers by boundary-value exchange
// (shard-local fixpoints plus iterated min-combine over cut edges for
// SSSP; a boundary-label union for CC). Every write acknowledgment and
// query response is stamped with an epoch vector — one epoch per shard
// — in the response body and the X-Incgraph-Epochs header, so clients
// get prefix-consistent cross-shard reads: a read covers a write iff
// its vector covers the write's, component-wise.
//
// Two deployment modes:
//
//	incrouter -spawn -shards 2 -replicas 1 -data-root /var/lib/incgraph \
//	    -incgraphd ./incgraphd -gen powerlaw -nodes 2000 -algos sssp,cc
//	incrouter -shard-addrs http://h0:8356,http://h1:8356 \
//	    [-replica-addrs http://r0:8356,http://r1:8356]
//
// With -spawn the router supervises the topology itself: it launches
// one incgraphd per shard (durable, WAL under -data-root) plus an
// optional warm replica per shard (-replicas 1), restarts crashed
// children with backoff, health-probes every slot, and — when a primary
// dies — promotes its replica and repoints routing at it. Without
// -spawn the shard daemons are managed externally and the router only
// probes, sheds, and promotes.
//
// API:
//
//	POST /update[?wait=1]  split batch, fan out; 503 + Retry-After when
//	                       an owning shard is down or shedding; partial
//	                       applies reported per shard, never acked whole
//	GET  /query/sssp       global distances via iterated exchange
//	GET  /query/cc         global labels via boundary-label union
//	GET  /epochs           acknowledged floor and live per-shard epochs
//	GET  /shards           routing table: members, health, generations
//	GET  /metrics          router metrics (Prometheus text format)
//	GET  /healthz          router liveness
//
// Cluster observability (see README "Cluster observability"):
//
//	GET  /debug/cluster/trace  merged Perfetto timeline across router,
//	                           shards, and replicas (?trace= filters to
//	                           one request's spans)
//	GET  /cluster/metrics      every member's metrics federated under
//	                           shard/role labels, plus cluster rollups
//	                           (apply-latency merge, epoch skew,
//	                           replica lag, total sheds)
//	GET  /cluster/health       per-member liveness, epochs, generations
//	GET  /cluster/events       recent supervisor topology events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"incgraph"
	"incgraph/internal/obs"
	"incgraph/internal/resilience"
	"incgraph/internal/shard"
)

// routerFlags holds every incrouter flag value.
type routerFlags struct {
	listen       string
	shardAddrs   string
	replicaAddrs string
	logLevel     string
	accessLog    bool

	spawn     bool
	incgraphd string
	shards    int
	replicas  int
	basePort  int
	dataRoot  string
	fsync     string

	graphPath string
	algos     string
	src       int
	genKind   string
	genNodes  int
	genDeg    int
	genDirect bool
	genSeed   int64
}

// newRouterFlags defines the router's flags on fs.
func newRouterFlags(fs *flag.FlagSet) *routerFlags {
	c := &routerFlags{}
	fs.StringVar(&c.listen, "listen", ":8360", "HTTP listen address")
	fs.StringVar(&c.shardAddrs, "shard-addrs", "", "comma-separated shard base URLs (externally managed topology)")
	fs.StringVar(&c.replicaAddrs, "replica-addrs", "", "comma-separated warm-replica base URLs, aligned with -shard-addrs (empty entries allowed)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug|info|warn|error")
	fs.BoolVar(&c.accessLog, "access-log", false, "log every HTTP request (method, path, status, duration, trace ID)")

	fs.BoolVar(&c.spawn, "spawn", false, "spawn and supervise the shard topology as child processes")
	fs.StringVar(&c.incgraphd, "incgraphd", "incgraphd", "path to the incgraphd binary (with -spawn)")
	fs.IntVar(&c.shards, "shards", 2, "shard count (with -spawn)")
	fs.IntVar(&c.replicas, "replicas", 0, "warm replicas per shard, 0 or 1 (with -spawn)")
	fs.IntVar(&c.basePort, "base-port", 9321, "first port for spawned children; shard i gets base+2i, its replica base+2i+1")
	fs.StringVar(&c.dataRoot, "data-root", "", "directory for spawned children's WALs (with -spawn; required)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy passed to spawned children")

	fs.StringVar(&c.graphPath, "graph", "", "graph file passed to spawned children")
	fs.StringVar(&c.algos, "algos", "sssp,cc", "query classes passed to spawned children")
	fs.IntVar(&c.src, "src", 0, "sssp source passed to spawned children")
	fs.StringVar(&c.genKind, "gen", "", "synthetic generator passed to spawned children: powerlaw|grid")
	fs.IntVar(&c.genNodes, "nodes", 1000, "synthetic node count passed to spawned children")
	fs.IntVar(&c.genDeg, "deg", 8, "synthetic average degree passed to spawned children")
	fs.BoolVar(&c.genDirect, "directed", false, "synthetic graph directed (passed to spawned children)")
	fs.Int64Var(&c.genSeed, "seed", 1, "synthetic seed passed to spawned children")
	return c
}

// validateRouterFlags rejects unusable configurations before anything
// is spawned or bound.
func validateRouterFlags(c *routerFlags) error {
	if c.spawn {
		if c.shards < 1 {
			return fmt.Errorf("-shards must be >= 1, got %d", c.shards)
		}
		if c.replicas < 0 || c.replicas > 1 {
			return fmt.Errorf("-replicas must be 0 or 1, got %d", c.replicas)
		}
		if c.dataRoot == "" {
			return fmt.Errorf("-spawn requires -data-root (spawned shards are durable)")
		}
		if c.graphPath == "" && c.genKind == "" {
			return fmt.Errorf("-spawn requires -graph or -gen for the children")
		}
		return nil
	}
	if c.shardAddrs == "" {
		return fmt.Errorf("need -shard-addrs (or -spawn)")
	}
	return nil
}

func main() {
	c := newRouterFlags(flag.CommandLine)
	flag.Parse()
	if err := validateRouterFlags(c); err != nil {
		fmt.Fprintln(os.Stderr, "incrouter:", err)
		flag.Usage()
		os.Exit(2)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(c.logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "incrouter: bad -log-level:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	if err := run(logger, c); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// splitAddrs parses a comma-separated URL list, keeping empty entries
// (an unreplicated slot in -replica-addrs).
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// childSpecs builds the supervisor specs for -spawn mode: one durable
// shard daemon per slot, plus a warm replica when -replicas 1.
func childSpecs(c *routerFlags) (specs []shard.ProcSpec, primaries []string) {
	common := []string{
		"-algos", c.algos,
		"-src", strconv.Itoa(c.src),
		"-shards", strconv.Itoa(c.shards),
		"-fsync", c.fsync,
	}
	if c.graphPath != "" {
		common = append(common, "-graph", c.graphPath)
	} else {
		common = append(common,
			"-gen", c.genKind,
			"-nodes", strconv.Itoa(c.genNodes),
			"-deg", strconv.Itoa(c.genDeg),
			"-seed", strconv.FormatInt(c.genSeed, 10))
		if c.genDirect {
			common = append(common, "-directed")
		}
	}
	for i := 0; i < c.shards; i++ {
		pport := c.basePort + 2*i
		paddr := fmt.Sprintf("http://127.0.0.1:%d", pport)
		primaries = append(primaries, paddr)
		argv := append([]string{c.incgraphd,
			"-listen", fmt.Sprintf("127.0.0.1:%d", pport),
			"-shard-id", strconv.Itoa(i),
			"-data-dir", filepath.Join(c.dataRoot, fmt.Sprintf("shard-%d", i)),
		}, common...)
		specs = append(specs, shard.ProcSpec{
			Name: fmt.Sprintf("shard%d", i), Shard: i, Addr: paddr, Argv: argv,
		})
		if c.replicas > 0 {
			rport := pport + 1
			raddr := fmt.Sprintf("http://127.0.0.1:%d", rport)
			rargv := append([]string{c.incgraphd,
				"-listen", fmt.Sprintf("127.0.0.1:%d", rport),
				"-shard-id", strconv.Itoa(i),
				"-replica-of", paddr,
				"-data-dir", filepath.Join(c.dataRoot, fmt.Sprintf("shard-%d-replica", i)),
			}, common...)
			specs = append(specs, shard.ProcSpec{
				Name: fmt.Sprintf("shard%d-replica", i), Shard: i, Replica: true, Addr: raddr, Argv: rargv,
			})
		}
	}
	return specs, primaries
}

func run(logger *slog.Logger, c *routerFlags) error {
	var specs []shard.ProcSpec
	var primaries []string
	if c.spawn {
		specs, primaries = childSpecs(c)
	} else {
		primaries = splitAddrs(c.shardAddrs)
	}
	table := shard.NewTable(primaries)
	if !c.spawn {
		for i, addr := range splitAddrs(c.replicaAddrs) {
			if i < len(primaries) && addr != "" {
				table.SetReplica(i, addr)
			}
		}
	}

	// The supervisor runs in both modes: with children it spawns,
	// restarts, probes, and promotes; with none it is purely the prober
	// and failover agent for an externally managed topology. The event
	// ring is shared with the router so supervisor actions (spawns,
	// probe failures, promotions) surface at GET /cluster/events.
	events := obs.NewRing[shard.TopologyEvent](256)
	sup, err := shard.NewSupervisor(shard.SupervisorOptions{
		Table:  table,
		Specs:  specs,
		Events: events,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	if err := sup.Start(); err != nil {
		return err
	}
	defer sup.Stop()
	if err := sup.WaitReady(60 * time.Second); err != nil {
		return err
	}

	// Discover the graph shape and verify the topology agrees on the
	// partitioning before routing a single byte.
	info, err := discover(table)
	if err != nil {
		return err
	}
	if info.Shards != len(primaries) {
		return fmt.Errorf("shard 0 reports %d shards, router has %d", info.Shards, len(primaries))
	}
	part, err := shard.NewPartitioner(info.Partitioner, len(primaries))
	if err != nil {
		return err
	}
	router, err := shard.NewRouter(shard.RouterOptions{
		Part:     part,
		Table:    table,
		Directed: info.Directed,
		NumNodes: info.Nodes,
		Events:   events,
	})
	if err != nil {
		return err
	}

	handler := router.Handler()
	if c.accessLog {
		handler = incgraph.AccessLog(logger, handler)
	}
	srv := &http.Server{Addr: c.listen, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("routing", "addr", c.listen, "shards", len(primaries),
			"nodes", info.Nodes, "partitioner", part.Name())
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	return nil
}

// discover asks shard 0 for the deployment's shape, retrying briefly —
// the shard answers /healthz before its first host finishes the initial
// batch run. The retries back off from 2ms to 200ms, so a shard that is
// ready within milliseconds does not cost a fixed 200ms sleep.
func discover(table *shard.Table) (shard.Info, error) {
	addr, _ := table.Active(0)
	c := &shard.Client{Base: addr}
	deadline := time.Now().Add(60 * time.Second)
	poll := resilience.NewBackoff(2*time.Millisecond, 200*time.Millisecond, 1)
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		info, err := c.Info(ctx)
		cancel()
		if err == nil {
			if info.Nodes <= 0 {
				return info, fmt.Errorf("shard 0 at %s is not in shard mode (did it get -shard-id/-shards?)", addr)
			}
			return info, nil
		}
		if time.Now().After(deadline) {
			return shard.Info{}, fmt.Errorf("shard 0 at %s: %w", addr, err)
		}
		time.Sleep(poll.DelayFloored(attempt))
	}
}
