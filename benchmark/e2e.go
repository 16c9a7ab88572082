//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"incgraph/internal/graph"
)

// runner holds what every end-to-end run shares: the built binaries, the
// scratch directory and the process table.
type runner struct {
	procs     *procs
	workDir   string // removed on exit; holds graph files, data dirs and child logs
	incgraphd string
	incrouter string
}

// system is one started system under test.
type system struct {
	cmd  *exec.Cmd // group leader: the daemon, or the router whose group holds the shards
	base string    // URL the clients talk to
}

// pids are the processes CPU and memory are accounted to: the whole group.
func (s system) pids() []int { return groupPids(s.cmd.Process.Pid) }

// e2eResult is one end-to-end run of one workload.
type e2eResult struct {
	metrics           map[string]float64
	updateN, queryN   int // samples behind the latency percentiles
	attempted, failed int
	correct           bool
	err               error // why correct is false, or the first failed op
	coldStartS        float64
	routerCPU         float64 // cluster only: CPU split between router and shards
	shardsCPU         float64
	windows           string // the per-window values behind the medians, for the report
	// raw and ref are the plain medians over the windows of every load
	// metric, of the system under test and of the reference server; metrics
	// holds their quotient scaled to the workload's nominal reference.
	raw, ref map[string]float64
}

const readyTimeout = 120 * time.Second

func writeGraphFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runE2E runs workload w once against real processes: generate the inputs
// from the seed, start the system (several times, for the set-up time) and
// the reference server, warm both up, measure the closed loop for the given
// seconds on the two in alternation, and check every final view against a
// recompute on the mirror. Tracing is off: these are
// the numbers a client sees.
func (r *runner) runE2E(ctx context.Context, w workload, seed int64, seconds float64, maxOps int) (res e2eResult, err error) {
	res.metrics = make(map[string]float64)
	in := makeInputs(w, seed)
	dir, err := os.MkdirTemp(r.workDir, w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	graphFile := filepath.Join(dir, "graph.txt")
	if err := writeGraphFile(graphFile, in.graph); err != nil {
		return res, err
	}
	patternFile := ""
	if in.pattern != nil {
		patternFile = filepath.Join(dir, "pattern.txt")
		if err := writeGraphFile(patternFile, in.pattern); err != nil {
			return res, err
		}
	}
	logf, err := os.Create(filepath.Join(dir, "children.log"))
	if err != nil {
		return res, err
	}
	defer logf.Close()
	// On failure the children's log is the only account of what went wrong.
	defer func() {
		if err != nil || res.err != nil {
			if data, rerr := os.ReadFile(logf.Name()); rerr == nil && len(data) > 0 {
				if len(data) > 4096 {
					data = data[len(data)-4096:]
				}
				fmt.Fprintf(os.Stderr, "--- children's log (tail) ---\n%s\n", data)
			}
		}
	}()

	conn := newConn()
	defer conn.CloseIdleConnections()

	// start launches the system for the i-th time and returns once every
	// hosted view is published; the elapsed time is one set-up sample.
	start := func(i int) (system, float64, error) {
		var argv []string
		var base string
		if w.shards > 0 {
			// Shards take base+2i; the router listens on the port after them.
			port, err := freePortBlock(2*w.shards + 1)
			if err != nil {
				return system{}, 0, err
			}
			listen := fmt.Sprintf("127.0.0.1:%d", port+2*w.shards)
			base = "http://" + listen
			// A fresh data root each time: every cluster start is a cold start.
			argv = append([]string{r.incrouter}, w.routerArgs(r.incgraphd, graphFile, listen,
				filepath.Join(dir, fmt.Sprintf("data-%d", i)), port)...)
		} else {
			port, err := freePortBlock(1)
			if err != nil {
				return system{}, 0, err
			}
			listen := fmt.Sprintf("127.0.0.1:%d", port)
			base = "http://" + listen
			argv = append([]string{r.incgraphd}, w.daemonArgs(graphFile, patternFile, listen, filepath.Join(dir, "data"))...)
		}
		t0 := time.Now()
		cmd, err := r.procs.start(logf, argv...)
		if err != nil {
			return system{}, 0, err
		}
		if err := waitReady(ctx, conn, cmd.Process.Pid, base, w.algos, readyTimeout); err != nil {
			r.procs.kill(cmd)
			return system{}, 0, err
		}
		return system{cmd: cmd, base: base}, time.Since(t0).Seconds(), nil
	}

	if w.durable {
		// Cold start, write the preload, and crash: what the measured set-up
		// recovers from is a checkpoint plus a WAL tail of acknowledged
		// writes, none of which may be lost.
		sys, cold, err := start(-1)
		if err != nil {
			return res, err
		}
		res.coldStartS = cold
		for i := 0; i < w.preload; i++ {
			if err := postUpdate(ctx, conn, sys.base, encodeBatch(in.stream.next(w.perPost))); err != nil {
				r.procs.kill(sys.cmd)
				return res, fmt.Errorf("preload POST %d: %w", i, err)
			}
		}
		r.procs.kill(sys.cmd)
	}

	spinCPUs(hostWarmup)
	var sys system
	var setups []float64
	for i := 0; i < w.setups; i++ {
		s, took, err := start(i)
		if err != nil {
			return res, err
		}
		setups = append(setups, took)
		if w.durable {
			// Right after recovery every acknowledged write must be visible.
			want, err := expectedViews(w.algos, in.stream.mirror, in.pattern)
			if err == nil {
				err = checkViews(ctx, conn, s.base, w.algos, want)
			}
			if err != nil {
				r.procs.kill(s.cmd)
				res.err = fmt.Errorf("after kill -9 recovery: %w", err)
				return res, nil
			}
		}
		if i < w.setups-1 {
			r.procs.kill(s.cmd) // kill -9: the next durable start is another recovery
			continue
		}
		sys = s
	}
	defer r.procs.kill(sys.cmd)
	// Not the plain median: a start of the cluster takes either 0.14 or 0.20 s,
	// nothing in between (the supervisor polls for readiness every 50 ms and
	// the shards come up about when the third poll is due), and the median of a
	// few such starts is one or the other, 46% apart, as the host's speed of
	// the minute tips it.
	res.metrics["setup_s"] = midmean(setups)

	// The reference server (see refserver.go) is measured in alternation
	// with the system; it idles while the system is loaded and the other way
	// round.
	ref, err := r.startRef(ctx, logf, conn, w.ref, dir)
	if err != nil {
		return res, err
	}
	defer r.procs.kill(ref.cmd)

	// Warm-up: connections, caches and lazily built state, unmeasured.
	sutOpt := loadOptions{base: sys.base, algos: w.algos, perPost: w.perPost, readEvery: w.readEvery, readPace: w.readPace,
		seconds: warmupSeconds(seconds), maxOps: warmupOps(maxOps), writer: newConn(), reader: newConn()}
	defer sutOpt.writer.CloseIdleConnections()
	defer sutOpt.reader.CloseIdleConnections()
	refOpt := sutOpt
	refOpt.base, refOpt.maxOps, refOpt.fixedBody = ref.base, 0, refBody(w.perPost)
	if w.ref.gets > 0 {
		refOpt.algos = make([]string, w.ref.gets)
		for i := range refOpt.algos {
			refOpt.algos[i] = "view"
		}
	}
	refOpt.writer, refOpt.reader = newConn(), newConn()
	defer refOpt.writer.CloseIdleConnections()
	defer refOpt.reader.CloseIdleConnections()
	if warm := runLoad(ctx, in.stream, sutOpt); warm.failed > 0 {
		res.err = fmt.Errorf("warm-up: %w", warm.firstErr)
		return res, nil
	}
	refOpt.seconds = seconds * refShare / (windows + 1)
	if warm := runLoad(ctx, in.stream, refOpt); warm.failed > 0 {
		return res, fmt.Errorf("reference server warm-up: %w", warm.firstErr)
	}

	// The measured phase: windows of load on the system, each between two
	// windows of the same loop on the reference server.
	sutOpt.seconds = seconds * (1 - refShare) / windows
	sutOpt.maxOps = (maxOps + windows - 1) / windows
	pids, refPids := sys.pids(), ref.pids()
	routerCPU0, allCPU0 := cpuSeconds([]int{sys.cmd.Process.Pid}), cpuSeconds(pids)
	var load loadResult
	var sutRows, refRows []map[string]float64
	refWindow := func() error {
		l, row := measureWindow(ctx, in.stream, refOpt, refPids)
		if l.failed > 0 {
			return fmt.Errorf("reference server: %d of %d ops failed, first: %w", l.failed, l.attempted, l.firstErr)
		}
		refRows = append(refRows, row)
		return nil
	}
	if err := refWindow(); err != nil {
		return res, err
	}
	for i := 0; i < windows && ctx.Err() == nil; i++ {
		l, row := measureWindow(ctx, in.stream, sutOpt, pids)
		sutRows = append(sutRows, row)
		load.updates, load.queries = append(load.updates, l.updates...), append(load.queries, l.queries...)
		load.attempted, load.failed = load.attempted+l.attempted, load.failed+l.failed
		if load.firstErr == nil {
			load.firstErr = l.firstErr
		}
		if err := refWindow(); err != nil {
			return res, err
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if w.shards > 0 {
		res.routerCPU = cpuSeconds([]int{sys.cmd.Process.Pid}) - routerCPU0
		res.shardsCPU = cpuSeconds(pids) - allCPU0 - res.routerCPU
	}

	res.attempted, res.failed = load.attempted, load.failed
	res.updateN, res.queryN = len(load.updates), len(load.queries)
	res.windows = normalise(&res, w.refNominal, sutRows, refRows)
	res.metrics["update_p95_ms"] = percentile(latencies(load.updates), 0.95)
	res.metrics["query_p95_ms"] = percentile(latencies(load.queries), 0.95)
	res.metrics["rss_peak_mb"] = rssPeakMB(pids)
	if load.failed > 0 {
		res.err = fmt.Errorf("%d of %d ops failed, first: %w", load.failed, load.attempted, load.firstErr)
		return res, nil
	}

	want, err := expectedViews(w.algos, in.stream.mirror, in.pattern)
	if err != nil {
		return res, err
	}
	if err := checkViews(ctx, conn, sys.base, w.algos, want); err != nil {
		res.err = err
		return res, nil
	}
	res.correct = true
	return res, nil
}

// hostWarmup is how long both cores are kept busy before the first timed
// start. A VM that has idled runs its first seconds of work at a half to a
// third of its speed (measured: after 15 s of idling a cluster start took
// 0.25 s five times in a row, then 0.14 s; after 3 s of spinning 0.14 s from
// the first), and whether a run follows another at once or a pause is not
// the benchmark's to choose. Every later phase follows seconds of load.
const hostWarmup = 2 * time.Second

func spinCPUs(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := uint64(1); time.Now().Before(deadline); {
				for j := 0; j < 1<<16; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
		}()
	}
	wg.Wait()
}

// startRef launches this binary as the reference server and waits until it
// answers.
func (r *runner) startRef(ctx context.Context, logw *os.File, conn *http.Client, p refParams, dir string) (system, error) {
	self, err := os.Executable()
	if err != nil {
		return system{}, err
	}
	port, err := freePortBlock(1)
	if err != nil {
		return system{}, err
	}
	listen := fmt.Sprintf("127.0.0.1:%d", port)
	cmd, err := r.procs.start(logw, append([]string{self}, p.args(listen, dir)...)...)
	if err != nil {
		return system{}, err
	}
	base := "http://" + listen
	if err := waitReady(ctx, conn, cmd.Process.Pid, base, nil, readyTimeout); err != nil {
		r.procs.kill(cmd)
		return system{}, fmt.Errorf("reference server: %w", err)
	}
	return system{cmd: cmd, base: base}, nil
}

// refBody is what a reference POST carries: as many update lines as one of
// the workload's POSTs.
func refBody(perPost int) []byte {
	return bytes.Repeat([]byte("+ 12345 54321 7\n"), perPost)
}

// The warm-up is a tenth of the measured phase, in time or in ops.
func warmupSeconds(seconds float64) float64 { return seconds / 10 }

func warmupOps(maxOps int) int {
	if maxOps == 0 {
		return 0
	}
	return maxOps/10 + 1
}

// windows is how many stretches of load on the system under test the
// measured phase holds; windows+1 stretches on the reference server
// surround them, and refShare of the phase goes to those. Every load metric
// is computed per window, divided by the mean of the same metric in the two
// reference windows around it, and the median of the quotients — times the
// workload's nominal reference value, which keeps the unit — is reported.
// What the host does to every program at once (see refserver.go) cancels
// in the quotient; a burst that hits a minority of the windows moves no
// reported number either.
const (
	windows  = 8
	refShare = 0.35
)

// loadMetrics are the end-to-end metrics of the measured phase that are
// reported relative to the reference server.
var loadMetrics = []string{"update_p50_ms", "query_p50_ms", "updates_per_s", "cpu_ms_per_op"}

// measureWindow runs one stretch of load and returns, beside the samples,
// its row of loadMetrics (those it has samples for) and the share of the
// stretch the hypervisor ran other guests ("steal").
func measureWindow(ctx context.Context, st *stream, o loadOptions, pids []int) (loadResult, map[string]float64) {
	t0, cpu0, steal0 := time.Now(), cpuSeconds(pids), stealSeconds()
	load := runLoad(ctx, st, o)
	secs := time.Since(t0).Seconds()
	row := map[string]float64{"steal": (stealSeconds() - steal0) / (secs * float64(runtime.NumCPU()))}
	if n := len(load.updates); n > 0 {
		row["update_p50_ms"] = median(latencies(load.updates))
		row["updates_per_s"] = float64(n*o.perPost) / secs
	}
	if len(load.queries) > 0 {
		row["query_p50_ms"] = median(latencies(load.queries))
	}
	if ops := len(load.updates) + len(load.queries); ops > 0 {
		row["cpu_ms_per_op"] = (cpuSeconds(pids) - cpu0) * 1000 / float64(ops)
	}
	return load, row
}

// normalise fills res.metrics with the reported value of every load metric
// (median over the windows of system ÷ surrounding reference, × nominal),
// res.raw and res.ref with the plain medians of both, and returns the
// per-window table. refRows holds one more row than sutRows.
func normalise(res *e2eResult, nominal map[string]float64, sutRows, refRows []map[string]float64) string {
	res.raw, res.ref = map[string]float64{}, map[string]float64{}
	var b strings.Builder
	fmt.Fprintf(&b, "  %6s %6s", "window", "steal")
	for _, name := range loadMetrics {
		fmt.Fprintf(&b, " %24s", name+" (ref)")
	}
	b.WriteByte('\n')
	quot := map[string][]float64{}
	raw, ref := map[string][]float64{}, map[string][]float64{}
	for i, row := range sutRows {
		fmt.Fprintf(&b, "  %6d %5.1f%%", i, 100*row["steal"])
		for _, name := range loadMetrics {
			around := (refRows[i][name] + refRows[i+1][name]) / 2
			fmt.Fprintf(&b, " %12.4f (%9.4f)", row[name], around)
			if row[name] > 0 && around > 0 {
				quot[name] = append(quot[name], row[name]/around)
				raw[name] = append(raw[name], row[name])
				ref[name] = append(ref[name], around)
			}
		}
		b.WriteByte('\n')
	}
	for _, name := range loadMetrics {
		res.metrics[name] = median(quot[name]) * nominal[name]
		res.raw[name], res.ref[name] = median(raw[name]), median(ref[name])
	}
	return b.String()
}
