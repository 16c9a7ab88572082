//go:build linux

package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix: the graph it runs on, the query classes
// hosted, how the daemon is configured and how large each POST is. The
// same struct drives the real binaries (through flags) and the in-process
// traced run (through serve.Options), so the two cannot drift.
type workload struct {
	name string
	why  string

	nodes, deg int      // undirected power-law graph
	algos      []string // hosted query classes, in -algos order
	perPost    int      // unit updates per POST /update

	// maxBatch and maxWait are the host's coalescing window; zero keeps
	// the daemon's defaults (256 updates, 2ms).
	maxBatch int
	maxWait  time.Duration

	// durable runs with a WAL: fsync is the policy, ckptEvery the
	// checkpoint cadence in ingested POSTs, preload the unmeasured POSTs
	// written before the kill -9 whose recovery is setup_s.
	durable   bool
	fsync     string
	ckptEvery int
	preload   int

	// shards > 0 runs an incrouter-supervised cluster of that many
	// incgraphd shards (each durable, under fsync).
	shards int

	// readEvery > 0 makes the reader take turns with the writer (one query
	// op after this many update ops) instead of running beside it. The
	// router's SSSP boundary exchange iterates until no distance improved,
	// and under a concurrent writer it keeps finding improvements: measured
	// 60-470 rounds and 2-16 s per routed query, one sample per run. Taking
	// turns measures the exchange on a quiescent cluster, which repeats.
	readEvery int

	// readPace is the concurrent reader's think time (closed loop: a query
	// op starts readPace after the previous one started, or as soon as that
	// one is done if it took longer). A reader cycling flat out keeps one of
	// the two cores busy encoding and reading O(|V|) views, the writer's
	// path contends for the other with the garbage collector, and the same
	// seed then gave update medians 15% apart from run to run. A paced
	// reader still overlaps the writer and still collects several hundred
	// samples a run.
	readPace time.Duration

	// setups is how many times a run starts the system; setup_s is the mean
	// of the middle half of the times taken.
	setups int

	// ref sizes the reference server's ops for this workload and refNominal
	// is what each load metric of the reference reads on the box the sizes
	// were frozen on: the scale the reported timings are expressed in (see
	// refserver.go and e2e.go's normalise).
	ref        refParams
	refNominal map[string]float64
}

func (w workload) hosts(algo string) bool {
	for _, a := range w.algos {
		if a == algo {
			return true
		}
	}
	return false
}

// The recorded sizes. They are the ISSUE's starting points cut down until
// one run — several set-ups, warm-up, the measured phase and the oracle —
// fits the driver's budget of roughly 35 s per run on the 2-core box, and
// then frozen; BENCHMARK.json and the README repeat them.
//
// Each ref mixes the reference op's ingredients the way the system's ops mix
// them, so that the host moves both alike: a graph of the same size; a
// search that costs about what the system's apply and publish cost (all of
// the op on burst, a tenth of a millisecond on durable); the wait a POST
// spends in coalescing windows (trickle's two hosts wait 2 ms one after the
// other, cluster's shards side by side); views of the system's size (burst's
// 20,000 entries stand for views that carry more per node); on cluster 16
// GETs per query op, as a routed query is a chain of small HTTP exchanges.
// Sizes that did not follow the system were tried and measured: a reference
// POST without the wait tripled the spread of trickle's and cluster's update
// latency instead of shrinking it, and one that chased pointers through 16
// MiB followed the host's last-level cache (2.4x between an afternoon and
// an evening) where the system did not move.
var workloads = []workload{
	{
		name:  "trickle",
		why:   "tiny batches on a large graph: |AFF| is small, so time goes to serve (coalescing window, O(|V|) snapshot and view JSON)",
		nodes: 100000, deg: 8, algos: []string{"sssp", "cc"}, perPost: 8,
		readPace: 25 * time.Millisecond, setups: 3,
		ref:        refParams{nodes: 100000, deg: 8, search: 40000, wait: 4 * time.Millisecond, view: 100000},
		refNominal: map[string]float64{"update_p50_ms": 6.75, "query_p50_ms": 9.55, "updates_per_s": 1130, "cpu_ms_per_op": 4.26},
	},
	{
		name:  "burst",
		why:   "0.5%-of-|G| batches on all six classes: large |AFF| makes the engine (h + resume, graph.Flat staging) do nearly all the work",
		nodes: 6000, deg: 27, algos: []string{"sssp", "cc", "sim", "dfs", "lcc", "bc"}, perPost: 400,
		readPace: 25 * time.Millisecond, setups: 5,
		ref:        refParams{nodes: 6000, deg: 27, search: 10000000, view: 20000},
		refNominal: map[string]float64{"update_p50_ms": 21.5, "query_p50_ms": 8.54, "updates_per_s": 18200, "cpu_ms_per_op": 14.1},
	},
	{
		name:  "durable",
		why:   "fsync-always WAL with POSTs sized to -max-batch: append, fsync and checkpoints dominate, set-up is a kill -9 recovery",
		nodes: 20000, deg: 16, algos: []string{"sssp", "cc"}, perPost: 16,
		maxBatch: 16, durable: true, fsync: "always", ckptEvery: 1024, preload: 1500,
		readPace: 10 * time.Millisecond, setups: 5,
		ref:        refParams{nodes: 20000, deg: 16, search: 20000, view: 20000, fsync: true},
		refNominal: map[string]float64{"update_p50_ms": 1.08, "query_p50_ms": 3.14, "updates_per_s": 12500, "cpu_ms_per_op": 1.07},
	},
	{
		name:  "cluster",
		why:   "incrouter over 2 shard processes: split, fan-out, view gather and boundary-exchange rounds dominate, more processes than cores",
		nodes: 3000, deg: 16, algos: []string{"sssp", "cc"}, perPost: 64,
		shards: 2, fsync: "interval", readEvery: 2,
		setups:     9,
		ref:        refParams{nodes: 3000, deg: 16, search: 500000, wait: 2 * time.Millisecond, view: 30000, gets: 16},
		refNominal: map[string]float64{"update_p50_ms": 3.65, "query_p50_ms": 22.2, "updates_per_s": 4220, "cpu_ms_per_op": 8.7},
	},
}

// smokeScale shrinks a workload to a graph of a few hundred nodes for the
// in-process self-test: same shape, milliseconds of work.
func smokeScale(w workload) workload {
	w.nodes = 400
	if w.perPost > 32 {
		w.perPost = 32
	}
	if w.preload > 40 {
		w.preload = 40
	}
	if w.ckptEvery > 16 {
		w.ckptEvery = 16
	}
	w.setups = 1
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, "|"))
}

// daemonArgs are the incgraphd flags of a single-process workload.
func (w workload) daemonArgs(graphFile, patternFile, listen, dataDir string) []string {
	args := []string{
		"-graph", graphFile, "-algos", strings.Join(w.algos, ","),
		"-src", strconv.Itoa(ssspSource), "-listen", listen, "-log-level", "warn",
	}
	if patternFile != "" {
		args = append(args, "-pattern", patternFile)
	}
	if w.maxBatch > 0 {
		args = append(args, "-max-batch", strconv.Itoa(w.maxBatch))
	}
	if w.maxWait > 0 {
		args = append(args, "-max-wait", w.maxWait.String())
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", w.fsync,
			"-checkpoint-every", strconv.Itoa(w.ckptEvery), "-verify-recovery")
	}
	return args
}

// routerArgs are the incrouter flags of the cluster workload.
func (w workload) routerArgs(incgraphd, graphFile, listen, dataRoot string, basePort int) []string {
	return []string{
		"-spawn", "-incgraphd", incgraphd, "-shards", strconv.Itoa(w.shards),
		"-base-port", strconv.Itoa(basePort), "-listen", listen, "-data-root", dataRoot,
		"-fsync", w.fsync, "-graph", graphFile, "-algos", strings.Join(w.algos, ","),
		"-src", strconv.Itoa(ssspSource), "-log-level", "warn",
	}
}

// sizes renders the frozen sizes for the run header.
func (w workload) sizes() string {
	s := fmt.Sprintf("|V|=%d deg=%d algos=%s per_post=%d setups=%d",
		w.nodes, w.deg, strings.Join(w.algos, ","), w.perPost, w.setups)
	if w.readPace > 0 {
		s += fmt.Sprintf(" read_pace=%s", w.readPace)
	}
	if w.maxBatch > 0 {
		s += fmt.Sprintf(" max_batch=%d", w.maxBatch)
	}
	if w.durable {
		s += fmt.Sprintf(" fsync=%s checkpoint_every=%d preload=%d", w.fsync, w.ckptEvery, w.preload)
	}
	if w.shards > 0 {
		s += fmt.Sprintf(" shards=%d fsync=%s read_every=%d", w.shards, w.fsync, w.readEvery)
	}
	s += fmt.Sprintf(" ref=search:%d,wait:%s,view:%d,gets:%d,fsync:%t", w.ref.search, w.ref.wait, w.ref.view, w.ref.gets, w.ref.fsync)
	return s
}
