//go:build linux

package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"incgraph"
	"incgraph/internal/graph"
	"incgraph/internal/shard"
)

// The traced run hosts the workload inside the benchmark process, wired
// the way cmd/incgraphd and cmd/incrouter wire it, with the wrappers of
// wrappers.go between the layers.

// daemon is one in-process incgraphd: a Service on a loopback listener.
type daemon struct {
	svc   *incgraph.Service
	dur   *incgraph.Durable // nil without a data dir
	srv   *http.Server
	base  string
	hosts []*tracedServeable

	readGraph time.Duration // graph.Read of the input file
	replay    time.Duration // WAL tail replay (recovery starts)
	replayed  int
}

// daemonSpec is what startDaemon needs beyond the workload: where this
// daemon sits (alone, or as shard id of a cluster) and its input files.
type daemonSpec struct {
	graphFile, patternFile string
	dataDir                string // "" = no WAL
	fsync                  string
	part                   shard.Partitioner // nil = not a shard
	shardID                int
}

// startDaemon mirrors cmd/incgraphd's run(): read the graph, (in shard
// mode) keep the owned fragment, recover from the data dir, host every
// class, open the WAL, serve. With a data dir that holds a checkpoint and
// a WAL tail this is the recovery start.
func (t *tracer) startDaemon(w workload, sp daemonSpec) (_ *daemon, err error) {
	d := &daemon{}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	t0 := time.Now()
	base, err := readGraphFile(sp.graphFile)
	if err != nil {
		return nil, err
	}
	d.readGraph = time.Since(t0)
	var pat *graph.Graph
	if sp.patternFile != "" {
		if pat, err = readGraphFile(sp.patternFile); err != nil {
			return nil, err
		}
	}
	suffix, updateParent, queryParent := "", "client.update", "client.query"
	if sp.part != nil {
		base = shard.FilterGraph(base, sp.part, sp.shardID)
		suffix = fmt.Sprintf("@s%d", sp.shardID)
		updateParent, queryParent = "shard.router_update", "shard.router_query"
	}
	hostParent := "serve.http_update" + suffix
	if sp.dataDir != "" {
		hostParent = "wal.ingest" + suffix
	}

	d.svc = incgraph.NewService()
	var rec *incgraph.Recovery
	if sp.dataDir != "" {
		if rec, err = incgraph.LoadRecovery(sp.dataDir); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}
	targets := make(map[string]incgraph.Serveable, len(w.algos))
	for _, algo := range w.algos {
		g := base.Clone()
		if rec != nil {
			if ra, ok := rec.Algos[algo]; ok {
				g = ra.Graph
			}
		}
		m, err := newServeable(algo, g, pat)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			if err := rec.Restore(algo, m); err != nil {
				return nil, fmt.Errorf("recovery: restore %s: %w", algo, err)
			}
		}
		ts := t.wrap(m, suffix, hostParent)
		d.hosts = append(d.hosts, ts)
		targets[algo] = ts
	}
	if rec != nil {
		t1 := time.Now()
		if d.replayed, err = rec.Replay(targets, d.svc.Recorder()); err != nil {
			return nil, fmt.Errorf("recovery: replay: %w", err)
		}
		d.replay = time.Since(t1)
		incgraph.VerifyRecovered(targets, d.svc.Recorder()) // -verify-recovery is the daemon's default
	}
	for _, ts := range d.hosts {
		opt := incgraph.ServeOptions{MaxBatch: w.maxBatch, MaxWait: w.maxWait, OnApply: ts.onApply}
		if rec != nil {
			opt.BaseEpoch, opt.BaseBatches = rec.Base(ts.algo)
		}
		if _, err := d.svc.Host(ts, opt); err != nil {
			return nil, err
		}
	}
	if sp.dataDir != "" {
		policy, err := incgraph.ParseSyncPolicy(sp.fsync)
		if err != nil {
			return nil, err
		}
		if d.dur, err = incgraph.OpenDurable(d.svc, sp.dataDir, incgraph.DurableOptions{
			WAL:             incgraph.WALOptions{Policy: policy},
			CheckpointEvery: w.ckptEveryOrDefault(),
		}); err != nil {
			return nil, err
		}
		d.svc.SetJournal(tracedJournal{inner: d.dur, t: t, suffix: suffix, parent: "serve.http_update" + suffix})
	}
	if sp.part != nil {
		shard.MountShardAPI(d.svc, sp.part, sp.shardID, base.NumNodes(), base.Directed(), nil)
	}
	d.srv, d.base, err = serveLoopback(t.serviceMiddleware(d.svc.Handler(), suffix, updateParent, queryParent))
	return d, err
}

// stop ends the daemon the way a kill -9 leaves its disk: every
// acknowledged write is in the WAL, and no checkpoint-on-drain is taken.
func (d *daemon) stop() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.dur != nil {
		d.dur.Close() // the error is a close of an already-synced log
	}
	if d.svc != nil {
		d.svc.Close()
	}
}

func readGraphFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incgraph.ReadGraph(f)
}

// serveLoopback serves h on an ephemeral loopback port.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns http.ErrServerClosed on Close
	return srv, "http://" + ln.Addr().String(), nil
}

// ckptEveryOrDefault is the daemon's -checkpoint-every default for
// workloads that do not set it (the cluster's shards).
func (w workload) ckptEveryOrDefault() int {
	if w.ckptEvery > 0 {
		return w.ckptEvery
	}
	return 1024
}

// inprocSystem is the whole traced system under test: one daemon, or a
// router in front of shard daemons.
type inprocSystem struct {
	base    string // what the clients talk to
	daemons []*daemon
	router  *http.Server
	part    shard.Partitioner
}

func (s *inprocSystem) stop() {
	if s.router != nil {
		s.router.Close()
	}
	for _, d := range s.daemons {
		d.stop()
	}
}

// startSystem starts workload w in-process on the files in dir.
func (t *tracer) startSystem(w workload, dir, graphFile, patternFile string, nodes int) (*inprocSystem, error) {
	sys := &inprocSystem{}
	if w.shards == 0 {
		sp := daemonSpec{graphFile: graphFile, patternFile: patternFile}
		if w.durable {
			sp.dataDir, sp.fsync = filepath.Join(dir, "data"), w.fsync
		}
		d, err := t.startDaemon(w, sp)
		if err != nil {
			return nil, err
		}
		sys.daemons, sys.base = []*daemon{d}, d.base
		return sys, nil
	}
	part, err := shard.NewPartitioner("hash", w.shards)
	if err != nil {
		return nil, err
	}
	sys.part = part
	var addrs []string
	for i := 0; i < w.shards; i++ {
		d, err := t.startDaemon(w, daemonSpec{
			graphFile: graphFile, dataDir: filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			fsync: w.fsync, part: part, shardID: i,
		})
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.daemons = append(sys.daemons, d)
		addrs = append(addrs, d.base)
	}
	router, err := shard.NewRouter(shard.RouterOptions{
		Part: part, Table: shard.NewTable(addrs), Directed: false, NumNodes: nodes,
	})
	if err != nil {
		sys.stop()
		return nil, err
	}
	if sys.router, sys.base, err = serveLoopback(t.routerMiddleware(router.Handler())); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}
