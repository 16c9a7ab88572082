// Command incgraph runs a graph query batch-first and then maintains it
// incrementally over update batches — the library's algorithms as a
// command-line tool.
//
// Usage:
//
//	incgraph -algo sssp -graph g.txt -src 0 [-updates u.txt]
//	incgraph -algo cc|dfs|lcc|bc -graph g.txt [-updates u.txt]
//	incgraph -algo sim -graph g.txt -pattern q.txt [-updates u.txt]
//	incgraph -gen powerlaw -nodes 1000 -deg 8 [-directed] > g.txt
//	incgraph -genupdates 100 -graph g.txt > u.txt
//
// Graphs and update batches use the text formats of the graph package
// (labeled edge lists; "+ u v w" / "- u v" update lines). With -updates,
// the tool prints both the initial answer and the incrementally
// maintained answer after applying the batch, along with timings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"incgraph"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is main with its environment made explicit, so tests can drive
// the CLI end to end. Exit codes: 0 ok, 1 runtime error, 2 usage error.
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("incgraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo      = fs.String("algo", "", "query class: "+incgraph.ClassNames())
		graphPath = fs.String("graph", "", "graph file (labeled edge-list format)")
		pattern   = fs.String("pattern", "", "pattern graph file (sim only)")
		updates   = fs.String("updates", "", "update batch file to apply incrementally")
		src       = fs.Int("src", 0, "source node (sssp only)")
		quiet     = fs.Bool("quiet", false, "print timings only, not per-node results")
		stats     = fs.Bool("stats", false, "print the incremental run's cost counters and |AFF|/|ΔG| ratio")

		genKind    = fs.String("gen", "", "emit a synthetic graph instead: powerlaw|grid")
		genNodes   = fs.Int("nodes", 1000, "synthetic node count")
		genDeg     = fs.Int("deg", 8, "synthetic average degree")
		genDirect  = fs.Bool("directed", false, "synthetic graph directed")
		genSeed    = fs.Int64("seed", 1, "synthetic seed")
		genUpdates = fs.Int("genupdates", 0, "emit N random updates for -graph instead")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "incgraph:", err)
		return 1
	}

	if *genKind != "" {
		if err := emitGraph(stdout, *genKind, *genSeed, *genNodes, *genDeg, *genDirect); err != nil {
			return fatal(err)
		}
		return 0
	}
	if *genUpdates > 0 {
		g, err := loadGraph(*graphPath)
		if err != nil {
			return fatal(err)
		}
		b := incgraph.RandomUpdates(*genSeed, g, *genUpdates, 0.5)
		if err := incgraph.WriteBatch(stdout, b); err != nil {
			return fatal(err)
		}
		return 0
	}

	// Fail fast on a missing or unknown query class, before any input is
	// loaded: this is a usage error, not a runtime one.
	if _, ok := incgraph.LookupClass(*algo); !ok {
		if *algo == "" {
			fmt.Fprintln(stderr, "incgraph: missing -algo")
		} else {
			fmt.Fprintf(stderr, "incgraph: unknown -algo %q\n", *algo)
		}
		fmt.Fprintf(stderr, "usage: incgraph -algo %s -graph g.txt [-updates u.txt] [options]\n", incgraph.ClassNames())
		fs.PrintDefaults()
		return 2
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return fatal(err)
	}
	var delta incgraph.Batch
	if *updates != "" {
		f, err := os.Open(*updates)
		if err != nil {
			return fatal(err)
		}
		delta, err = incgraph.ReadBatch(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
		if err := delta.Validate(g.NumNodes()); err != nil {
			return fatal(fmt.Errorf("%s: %v", *updates, err))
		}
	}
	if err := run(stdout, *algo, g, *pattern, *src, delta, *quiet, *stats); err != nil {
		return fatal(err)
	}
	return 0
}

func loadGraph(path string) (*incgraph.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -graph")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incgraph.ReadGraph(f)
}

func emitGraph(w io.Writer, kind string, seed int64, nodes, deg int, directed bool) error {
	var g *incgraph.Graph
	switch kind {
	case "powerlaw":
		g = incgraph.PowerLawGraph(seed, nodes, deg, directed)
	case "grid":
		side := 1
		for side*side < nodes {
			side++
		}
		g = incgraph.GridGraph(seed, side, side)
	default:
		return fmt.Errorf("unknown generator %q", kind)
	}
	_, err := g.WriteTo(w)
	return err
}

// run executes one query class end to end: it builds the class through
// the registry, runs its batch algorithm, applies the updates
// incrementally and prints the maintained answer from the published view.
// src is checked as an int: NodeID is 32 bits, and -src 4294967296 would
// otherwise wrap to node 0.
func run(w io.Writer, algo string, g *incgraph.Graph, patternPath string, src int, delta incgraph.Batch, quiet, stats bool) error {
	class, ok := incgraph.LookupClass(algo)
	if !ok {
		return fmt.Errorf("unknown or missing -algo %q", algo)
	}
	p := incgraph.ClassParams{Src: src}
	if class.Pattern && patternPath != "" {
		var err error
		if p.Pattern, err = loadGraph(patternPath); err != nil {
			return err
		}
	}
	m, err := class.New(g, p)
	if err != nil {
		return err
	}
	report := func(phase string, d time.Duration) {
		fmt.Fprintf(w, "%-12s %v\n", phase+":", d.Round(time.Microsecond))
	}
	t0 := time.Now()
	m.Recompute()
	report("batch", time.Since(t0))
	if len(delta) > 0 {
		t0 := time.Now()
		res := m.Apply(delta)
		report("incremental", time.Since(t0))
		if stats {
			printStats(w, res, len(delta), class.Engine)
		}
	}
	printView(w, m.Snapshot(), quiet)
	return nil
}

// printStats prints the counters the paper's boundedness claim is about:
// |AFF| and the apply's work-ledger measure (touched + |AFF| + ‖AFF‖)
// against |ΔG| for every class, and — for classes on the fixpoint engine —
// the inspection count and the h/resume time split.
func printStats(w io.Writer, res incgraph.ServeApplyResult, delta int, engine bool) {
	st, led := res.Stats, res.Ledger
	fmt.Fprintf(w, "%-12s |AFF|=%d |ΔG|=%d ratio=%.3f\n", "affected:", res.Affected, delta, float64(res.Affected)/float64(delta))
	fmt.Fprintf(w, "%-12s %d (%.1f per update)\n", "work:", led.Work(), led.BoundedRatio())
	if engine {
		fmt.Fprintf(w, "%-12s %d (%.1f per update)\n", "inspected:", st.Inspected(), float64(st.Inspected())/float64(delta))
		fmt.Fprintf(w, "%-12s %v / %v\n", "h/resume:",
			time.Duration(st.HSeconds*float64(time.Second)).Round(time.Microsecond),
			time.Duration(st.ResumeSeconds*float64(time.Second)).Round(time.Microsecond))
	}
}

// printView prints a class's answer from its published view; with quiet,
// only the summary line of the classes that have one.
func printView(w io.Writer, view any, quiet bool) {
	switch v := view.(type) {
	case incgraph.ServeSSSPView:
		for i := 0; i < v.Dist.Len() && !quiet; i++ {
			if d := v.Dist.At(i); d >= incgraph.Infinity {
				fmt.Fprintf(w, "%d inf\n", i)
			} else {
				fmt.Fprintf(w, "%d %d\n", i, d)
			}
		}
	case incgraph.ServeCCView:
		for i := 0; i < v.Labels.Len() && !quiet; i++ {
			fmt.Fprintf(w, "%d %d\n", i, v.Labels.At(i))
		}
	case incgraph.ServeSimView:
		fmt.Fprintf(w, "matches: %d\n", v.Count)
		if quiet {
			return
		}
		var pairs []int // data node · |V_Q| + pattern node, printed in that order
		for u, m := range v.Matches {
			for _, x := range m.Slice() {
				pairs = append(pairs, int(x)*v.NQ+u)
			}
		}
		slices.Sort(pairs)
		for _, p := range pairs {
			fmt.Fprintf(w, "%d ~ %d\n", p/v.NQ, p%v.NQ)
		}
	case incgraph.ServeDFSView:
		for i := 0; i < v.First.Len() && !quiet; i++ {
			fmt.Fprintf(w, "%d [%d,%d] parent %d\n", i, v.First.At(i), v.Last.At(i), v.Parent.At(i))
		}
	case incgraph.ServeLCCView:
		for i := 0; i < v.Gamma.Len() && !quiet; i++ {
			fmt.Fprintf(w, "%d %.6f\n", i, v.Gamma.At(i))
		}
	case incgraph.ServeBCView:
		fmt.Fprintf(w, "biconnected components: %d\n", v.NumComps)
		for i := 0; i < v.Articulation.Len() && !quiet; i++ {
			if v.Articulation.At(i) {
				fmt.Fprintf(w, "articulation %d\n", i)
			}
		}
	}
}
