// Command incbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	incbench -exp all                 # every experiment at default scale
//	incbench -exp exp2 -class sssp    # one figure family
//	incbench -exp exp2,publish        # several, into one report
//	incbench -exp exp1 -scale 0.5     # smaller stand-ins
//	incbench -exp exp2 -json out.json # machine-readable results alongside tables
//	incbench -exp exp2 -trace t.json  # per-experiment flight recording (Perfetto)
//	incbench -diff base.json new.json # perf-regression gate between two reports
//
// With -json, every measured batch-vs-incremental comparison is also
// collected as a structured bench.Result, and the run is written as one
// JSON document carrying the run parameters (seed, scale, Go version)
// next to the results — the format CI archives and perf diffs consume.
// With -trace, each experiment is recorded as a span in Chrome
// trace_event JSON, loadable in Perfetto to see where a long -exp all
// run spends its time.
//
// With -diff, no experiments run: the two reports (a committed baseline
// such as BENCH_baseline.json, and a freshly generated one) are compared
// measurement by measurement, and the process exits 1 when any count a
// measurement carries — |AFF|, work, the boundedness quotient, the
// publish and exchange counts — differs from the baseline's, or a
// measurement is missing. Those repeat exactly for a fixed seed and
// scale; throughput changes are printed and fail nothing. CI wires this
// as the perf-regression gate; see EXPERIMENTS.md for regenerating the
// baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"incgraph/internal/bench"
	"incgraph/internal/trace"
)

func main() {
	classes := bench.Classes()
	var (
		exp      = flag.String("exp", "all", "experiment, or a comma-separated list: table1|exp1|exp2|exp2types|exp3|exp4|aff|ablation|datasets|extensions|exchange|publish|all")
		class    = flag.String("class", "all", "query class for exp2: "+strings.Join(classes, "|")+"|all")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed     = flag.Int64("seed", 1, "workload seed")
		jsonOut  = flag.String("json", "", "write machine-readable results to this file")
		traceOut = flag.String("trace", "", "write a Chrome trace_event recording of the run to this file")
		diffBase = flag.String("diff", "", "compare this baseline report against the report named by the positional arg and exit")
	)
	flag.Parse()
	if *diffBase != "" {
		os.Exit(runDiff(*diffBase, flag.Args()))
	}
	if *class != "all" && !slices.Contains(classes, *class) {
		fmt.Fprintf(os.Stderr, "unknown class %q\n", *class)
		os.Exit(2)
	}
	cfg := bench.Config{Seed: *seed, Scale: *scale, Out: os.Stdout}

	rep := bench.Report{
		Schema:     bench.Schema,
		Experiment: *exp,
		Class:      *class,
		Seed:       *seed,
		Scale:      *scale,
		GoVersion:  runtime.Version(),
		UnixTime:   time.Now().Unix(),
		Results:    []bench.Result{},
	}
	if *jsonOut != "" {
		cfg.Report = func(r bench.Result) { rep.Results = append(rep.Results, r) }
	}

	var rec *trace.Recorder
	var track int32
	if *traceOut != "" {
		// Unbounded for practical purposes: a full -exp all run emits a
		// few dozen experiment spans, far below this ring.
		rec = trace.NewRecorder(4096)
		track = rec.Track("incbench")
	}

	run := func(name string, f func(bench.Config)) {
		start := time.Now()
		var sp trace.Span
		if rec != nil {
			sp = rec.Begin(name, "bench", track)
		}
		f(cfg)
		if rec != nil {
			sp.End()
		}
		fmt.Printf("-- %s done in %.1fs --\n", name, time.Since(start).Seconds())
	}
	exp2 := func() {
		for _, c := range classes {
			if *class == c || *class == "all" {
				run("exp2-"+c, func(cfg bench.Config) { bench.Exp2(cfg, c) })
			}
		}
	}
	// "all" runs the experiments in this order; a list runs the named ones
	// in the order given.
	order := []string{"datasets", "table1", "exp1", "exp2", "exp2types", "exp3", "exp4", "aff", "ablation", "extensions", "exchange", "publish"}
	experiments := map[string]func(bench.Config){
		"datasets": bench.ExpDatasets, "table1": bench.Table1, "exp1": bench.Exp1, "exp2types": bench.Exp2Types,
		"exp3": bench.Exp3, "exp4": bench.Exp4, "aff": bench.ExpAff, "ablation": bench.ExpAblation,
		"extensions": bench.ExpExtensions, "exchange": bench.ExpExchange, "publish": bench.ExpPublish,
	}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = order
	}
	for _, name := range names {
		switch f, ok := experiments[name]; {
		case name == "exp2": // a family of experiments, filtered by -class
			exp2()
		case ok:
			run(name, f)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "incbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- wrote %d results to %s --\n", len(rep.Results), *jsonOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = rec.WriteTraceEvents(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "incbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- wrote trace to %s --\n", *traceOut)
	}
}

// runDiff implements -diff: parse both reports, compare, render, and
// translate the outcome into an exit code (0 pass, 1 regression, 2
// usage or parse error).
func runDiff(basePath string, args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: incbench -diff baseline.json current.json")
		return 2
	}
	base, err := bench.ReadReport(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incbench: %v\n", err)
		return 2
	}
	cur, err := bench.ReadReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "incbench: %v\n", err)
		return 2
	}
	d, err := bench.Diff(base, cur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incbench: %v\n", err)
		return 2
	}
	d.WriteText(os.Stdout)
	if d.Failed() {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
