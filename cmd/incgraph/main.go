// Command incgraph runs a graph query batch-first and then maintains it
// incrementally over update batches — the library's algorithms as a
// command-line tool.
//
// Usage:
//
//	incgraph -algo sssp -graph g.txt -src 0 [-updates u.txt] [-after]
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
	"time"

	"incgraph"
)

// validAlgos names the supported query classes, the values -algo accepts.
var validAlgos = map[string]bool{
	"sssp": true, "cc": true, "sim": true, "dfs": true, "lcc": true, "bc": true,
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is main with its environment made explicit, so tests can drive
// the CLI end to end. Exit codes: 0 ok, 1 runtime error, 2 usage error.
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("incgraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo      = fs.String("algo", "", "query class: sssp|cc|sim|dfs|lcc|bc")
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
	if !validAlgos[*algo] {
		if *algo == "" {
			fmt.Fprintln(stderr, "incgraph: missing -algo")
		} else {
			fmt.Fprintf(stderr, "incgraph: unknown -algo %q\n", *algo)
		}
		fmt.Fprintln(stderr, "usage: incgraph -algo sssp|cc|sim|dfs|lcc|bc -graph g.txt [-updates u.txt] [options]")
		fs.PrintDefaults()
		return 2
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return fatal(err)
	}
	// Checked as an int: NodeID is 32 bits, and -src 4294967296 would
	// otherwise wrap to node 0.
	if *algo == "sssp" && (*src < 0 || *src >= g.NumNodes()) {
		return fatal(fmt.Errorf("sssp: source %d out of range", *src))
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
	if err := run(stdout, *algo, g, *pattern, incgraph.NodeID(*src), delta, *quiet, *stats); err != nil {
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

// maintainer is what every class's incremental algorithm offers run.
type maintainer interface {
	Apply(incgraph.Batch) int
	Stats() incgraph.FixpointStats
}

// run executes one query class end to end, printing the initial answer,
// applying the updates incrementally, and printing the maintained answer.
func run(w io.Writer, algo string, g *incgraph.Graph, patternPath string, src incgraph.NodeID, delta incgraph.Batch, quiet, stats bool) error {
	report := func(phase string, d time.Duration) {
		fmt.Fprintf(w, "%-12s %v\n", phase+":", d.Round(time.Microsecond))
	}
	// applyDelta applies the updates to m and, with -stats, prints the
	// counters the paper's boundedness claim is about: |AFF| and the
	// apply's work-ledger measure (touched + |AFF| + ‖AFF‖) against |ΔG|
	// for every class, and — for classes on the fixpoint engine — the
	// inspection count and the h/resume time split.
	applyDelta := func(m maintainer, engine bool) {
		if len(delta) == 0 {
			return
		}
		before := m.Stats()
		t0 := time.Now()
		aff := m.Apply(delta)
		report("incremental", time.Since(t0))
		if !stats {
			return
		}
		st := m.Stats().Sub(before)
		led := st.Ledger
		led.Delta = int64(len(delta))
		fmt.Fprintf(w, "%-12s |AFF|=%d |ΔG|=%d ratio=%.3f\n", "affected:", aff, len(delta), float64(aff)/float64(len(delta)))
		fmt.Fprintf(w, "%-12s %d (%.1f per update)\n", "work:", led.Work(), led.BoundedRatio())
		if engine {
			fmt.Fprintf(w, "%-12s %d (%.1f per update)\n", "inspected:", st.Inspected(), float64(st.Inspected())/float64(len(delta)))
			fmt.Fprintf(w, "%-12s %v / %v\n", "h/resume:",
				time.Duration(st.HSeconds*float64(time.Second)).Round(time.Microsecond),
				time.Duration(st.ResumeSeconds*float64(time.Second)).Round(time.Microsecond))
		}
	}
	switch algo {
	case "sssp":
		t0 := time.Now()
		inc := incgraph.NewIncSSSP(g, src)
		report("batch", time.Since(t0))
		applyDelta(inc, true)
		if !quiet {
			for v, d := range inc.Dist() {
				if d >= incgraph.Infinity {
					fmt.Fprintf(w, "%d inf\n", v)
				} else {
					fmt.Fprintf(w, "%d %d\n", v, d)
				}
			}
		}
	case "cc":
		t0 := time.Now()
		inc := incgraph.NewIncCC(g)
		report("batch", time.Since(t0))
		applyDelta(inc, true)
		if !quiet {
			for v, l := range inc.Labels() {
				fmt.Fprintf(w, "%d %d\n", v, l)
			}
		}
	case "sim":
		if patternPath == "" {
			return fmt.Errorf("sim needs -pattern")
		}
		f, err := os.Open(patternPath)
		if err != nil {
			return err
		}
		q, err := incgraph.ReadGraph(f)
		f.Close()
		if err != nil {
			return err
		}
		t0 := time.Now()
		inc := incgraph.NewIncSim(g, q)
		report("batch", time.Since(t0))
		applyDelta(inc, true)
		r := inc.Relation()
		fmt.Fprintf(w, "matches: %d\n", r.Count())
		if !quiet {
			for v := 0; v < g.NumNodes(); v++ {
				for u := 0; u < q.NumNodes(); u++ {
					if r.Match(incgraph.NodeID(v), incgraph.NodeID(u)) {
						fmt.Fprintf(w, "%d ~ %d\n", v, u)
					}
				}
			}
		}
	case "dfs":
		t0 := time.Now()
		inc := incgraph.NewIncDFS(g)
		report("batch", time.Since(t0))
		applyDelta(inc, false)
		if !quiet {
			tr := inc.Tree()
			for v := range tr.First {
				fmt.Fprintf(w, "%d [%d,%d] parent %d\n", v, tr.First[v], tr.Last[v], tr.Parent[v])
			}
		}
	case "lcc":
		if g.Directed() {
			return fmt.Errorf("lcc needs an undirected graph")
		}
		t0 := time.Now()
		inc := incgraph.NewIncLCC(g)
		report("batch", time.Since(t0))
		applyDelta(inc, false)
		if !quiet {
			for v := 0; v < g.NumNodes(); v++ {
				fmt.Fprintf(w, "%d %.6f\n", v, inc.Result().Gamma(incgraph.NodeID(v)))
			}
		}
	case "bc":
		if g.Directed() {
			return fmt.Errorf("bc needs an undirected graph")
		}
		t0 := time.Now()
		inc := incgraph.NewIncBC(g)
		report("batch", time.Since(t0))
		applyDelta(inc, false)
		fmt.Fprintf(w, "biconnected components: %d\n", inc.Result().NumComps())
		if !quiet {
			for v, a := range inc.Result().Articulation {
				if a {
					fmt.Fprintf(w, "articulation %d\n", v)
				}
			}
		}
	default:
		return fmt.Errorf("unknown or missing -algo %q", algo)
	}
	return nil
}
