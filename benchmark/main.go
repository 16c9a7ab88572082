//go:build linux

// Command benchmark is the repository's benchmark: four closed-loop
// serving workloads against real incgraphd/incrouter processes, plus a
// traced in-process replay that splits each client-observed millisecond
// across the graph, engine, serve, wal and shard layers. See README.md in
// this directory for the metric glossary and how to read the output.
//
// The driver's contract (BENCHMARK.json) runs one workload per invocation:
//
//	bash benchmark/run.sh --workload trickle --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without -workload every
// workload runs in turn and a summary is printed:
//
//	bash benchmark/run.sh -seed 1            # end to end, all four workloads
//	bash benchmark/run.sh -seed 1 -trace 1   # per-layer metrics and budget tables
//	bash benchmark/run.sh -repeat 5          # median and quartiles per metric
//	bash benchmark/run.sh -selfcheck         # two sets on one build must agree
//	bash benchmark/run.sh -smoke -trace 1    # tiny in-process scale, no binaries
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	ops      int
	repeat   int
	selfchk  bool
	smoke    bool
	buildDir string

	// The reference server's mode: the end-to-end run starts this same
	// binary with -refserver (see refserver.go).
	refServer bool
	refListen string
	refDir    string
	ref       refParams
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line: trickle|burst|durable|cluster (empty: all, with a summary)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated graph, pattern and update stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run against real processes; 1: traced in-process run printing the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, also write the spans as Chrome trace_event JSON to this file")
	flag.IntVar(&o.ops, "ops", 0, "stop the measured phase after this many update ops (0: only -seconds bounds it); a fixed count makes the work ledgers repeat exactly")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload this many times with consecutive seeds and report median, quartiles and spread per metric")
	flag.BoolVar(&o.selfchk, "selfcheck", false, "run two -repeat sets on the same build and fail if any metric's medians disagree beyond its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a few hundred nodes (self-test scale)")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for the built daemons and the run's scratch files")
	flag.BoolVar(&o.refServer, "refserver", false, "serve the reference ops instead of running a benchmark (started by the end-to-end run itself)")
	flag.StringVar(&o.refListen, "ref-listen", "", "with -refserver: address to listen on")
	flag.StringVar(&o.refDir, "ref-dir", "", "with -refserver: directory of the fsynced log")
	flag.IntVar(&o.ref.nodes, "ref-nodes", 1, "with -refserver: nodes of the graph a POST /update searches")
	flag.IntVar(&o.ref.deg, "ref-deg", 1, "with -refserver: out-edges per node of that graph")
	flag.IntVar(&o.ref.search, "ref-search", 0, "with -refserver: edges a POST /update scans breadth-first")
	flag.DurationVar(&o.ref.wait, "ref-wait", 0, "with -refserver: fixed wait per POST /update")
	flag.IntVar(&o.ref.view, "ref-view", 0, "with -refserver: entries of the view a GET /query encodes")
	flag.BoolVar(&o.ref.fsync, "ref-fsync", false, "with -refserver: append and fsync every POST body")
	flag.Parse()
	if o.refServer {
		fmt.Fprintln(os.Stderr, "benchmark: reference server:", runRefServer(o.refListen, o.refDir, o.ref))
		os.Exit(1)
	}
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// env is what one invocation sets up once: scratch space, the built
// daemons (end-to-end runs only) and the signal-aware context.
type env struct {
	ctx context.Context
	r   *runner
}

func run(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if o.smoke {
		selected = append([]workload(nil), selected...) // not the package's slice
		for i, w := range selected {
			selected[i] = smokeScale(w)
		}
	}

	workDir, err := os.MkdirTemp(mustDir(o.buildDir), "run-")
	if err != nil {
		return err
	}
	r := &runner{procs: newProcs(), workDir: workDir}
	// Nothing the benchmark started or wrote survives it, on any path.
	defer os.RemoveAll(workDir)
	defer r.procs.killAll()

	if o.trace == 0 {
		if r.incgraphd, r.incrouter, err = buildBinaries(filepath.Join(o.buildDir, "bin")); err != nil {
			return err
		}
	}
	e := env{ctx: ctx, r: r}
	printHeader(o, selected)

	switch {
	case o.selfchk:
		return e.selfcheck(o, selected)
	case o.repeat > 0:
		return e.repeatSet(o, selected, o.seed)
	case o.workload != "":
		return e.driverRun(o, selected[0])
	default:
		return e.summaryRun(o, selected)
	}
}

func mustDir(dir string) string {
	os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// printHeader records on stderr what produced the numbers: commit, Go
// version, cores, seed and every workload's frozen sizes.
func printHeader(o options, ws []workload) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(os.Stderr, "# incgraph benchmark: commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g ops=%d trace=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.ops, o.trace)
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "#   %-8s %s\n", w.name, w.sizes())
	}
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output in driver mode.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// oneRun runs workload w once in the mode o.trace selects and returns the
// result line's content plus a human-readable report.
func (e env) oneRun(o options, w workload, seed int64) (resultLine, string, error) {
	if o.trace == 1 {
		return e.tracedRun(o, w, seed)
	}
	res, err := e.r.runE2E(e.ctx, w, seed, o.seconds, o.ops)
	if err != nil {
		return resultLine{}, "", err
	}
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		line.Metrics[m.name] = metricValue{Value: res.metrics[m.name], Unit: m.unit}
	}
	return line, e2eReport(w, res), nil
}

// driverRun is the BENCHMARK.json contract: one workload, one JSON object
// as the last line of standard output.
func (e env) driverRun(o options, w workload) error {
	line, report, err := e.oneRun(o, w, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, report)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("workload %s: incorrect run (see above)", w.name)
	}
	return nil
}

// summaryRun runs every workload once and prints a report per workload
// and a JSON summary. The benchmark measures; it claims nothing.
func (e env) summaryRun(o options, ws []workload) error {
	summary := struct {
		Seed      int64                 `json:"seed"`
		Seconds   float64               `json:"seconds"`
		Trace     int                   `json:"trace"`
		Workloads map[string]resultLine `json:"workloads"`
		Claim     any                   `json:"claim"`
	}{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]resultLine{}}
	ok := true
	for _, w := range ws {
		line, report, err := e.oneRun(o, w, o.seed)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		fmt.Print(report)
		summary.Workloads[w.name] = line
		ok = ok && line.Correct
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !ok {
		return fmt.Errorf("at least one workload was incorrect")
	}
	return nil
}

// e2eReport renders one end-to-end run for a person: every metric with its
// unit and, beside each timing, the sample count behind it.
func e2eReport(w workload, res e2eResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (end to end, tracing off): %s\n", w.name, w.sizes())
	for _, m := range append(append([]metricDef(nil), endToEnd...), tails...) {
		n := ""
		switch {
		case strings.HasPrefix(m.name, "update_p"):
			n = fmt.Sprintf("  (n=%d)", res.updateN)
		case strings.HasPrefix(m.name, "query_p"):
			n = fmt.Sprintf("  (n=%d)", res.queryN)
		case m.name == "setup_s":
			n = fmt.Sprintf("  (mean of the middle half of %d starts)", w.setups)
		}
		if strings.HasSuffix(m.name, "_p95_ms") {
			n += "  as measured, not normalised"
		}
		if nominal, ok := w.refNominal[m.name]; ok {
			n += fmt.Sprintf("  = system %.4f / reference %.4f x nominal reference %g", res.raw[m.name], res.ref[m.name], nominal)
		}
		fmt.Fprintf(&b, "  %-16s %12.4f %s%s\n", m.name, res.metrics[m.name], m.unit, n)
	}
	fmt.Fprintf(&b, "  %-16s %12d of %d attempted\n", "failed_ops", res.failed, res.attempted)
	fmt.Fprintf(&b, "  the %d windows of the measured phase, each metric of the system and (the mean of the reference windows around it);\n"+
		"  a reported value is the median over the windows of system / reference, x the nominal reference:\n%s", windows, res.windows)
	if w.durable {
		fmt.Fprintf(&b, "  %-16s %12.4f s  (first start on an empty data dir, for comparison with setup_s)\n", "cold_start", res.coldStartS)
	}
	if w.shards > 0 {
		fmt.Fprintf(&b, "  %-16s %12.4f s router, %.4f s shards  (measured phase)\n", "cpu_split", res.routerCPU, res.shardsCPU)
	}
	if res.correct {
		fmt.Fprintf(&b, "  oracle: every final view equals the recompute on the mirror graph\n")
	} else {
		fmt.Fprintf(&b, "  INCORRECT: %v\n", res.err)
	}
	return b.String()
}
