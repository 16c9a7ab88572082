// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6) on the synthetic stand-in
// datasets. Each experiment prints rows shaped like the paper's: who is
// compared, over which workload, and the measured times. Absolute numbers
// differ from the paper (different hardware, language and scale); the
// comparisons' shape is what the harness reproduces — see EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"text/tabwriter"
	"time"
)

// newRNG builds the deterministic random source of an experiment.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Config parameterizes a harness run.
type Config struct {
	Seed  int64
	Scale float64 // dataset size multiplier; 1.0 is the default laptop scale
	Out   io.Writer
	// Report, when non-nil, receives one Result per measured comparison
	// alongside the human-readable tables. incbench wires it to -json.
	Report func(Result)
}

// Result is one machine-readable measurement: a batch baseline against
// the deduced incremental algorithm on one dataset and workload. The
// tables print everything the paper's figures show; Result carries the
// subset downstream tooling wants to diff across commits — who ran,
// where, how long each side took, how large the affected area was.
type Result struct {
	// Experiment identifies the harness function, e.g. "exp2-sssp".
	Experiment string `json:"experiment"`
	// Dataset is the stand-in name (FS, TW, OKT, …).
	Dataset string `json:"dataset"`
	// Algo is the deduced incremental algorithm measured, e.g. "IncSSSP".
	Algo string `json:"algo"`
	// Workload describes the update batch, e.g. "|ΔG|=4%" or "M3".
	Workload string `json:"workload"`
	// BatchSeconds is the recompute-from-scratch baseline.
	BatchSeconds float64 `json:"batch_seconds"`
	// IncSeconds is the incremental repair time.
	IncSeconds float64 `json:"inc_seconds"`
	// Affected is |AFF| (the scope size |H⁰| or its class equivalent)
	// when the maintainer reports it; 0 otherwise.
	Affected int `json:"affected,omitempty"`
	// Speedup is BatchSeconds / IncSeconds.
	Speedup float64 `json:"speedup,omitempty"`
	// Workers is the shard count of an exchange measurement (the key
	// that tells its topologies apart in -diff); 0 everywhere else.
	Workers int `json:"workers,omitempty"`
	// Work is the repair's work-ledger measure (touched + |AFF| + ‖AFF‖);
	// 0 when the experiment did not collect it. Unlike the timings, Work is
	// deterministic for a fixed seed and scale, so report diffs can hold
	// it to a tight tolerance.
	Work int64 `json:"work,omitempty"`
	// BoundedRatio is Work / |ΔG| — the relative-boundedness quotient of
	// the measured repair (paper §4). 0 when Work was not collected.
	BoundedRatio float64 `json:"bounded_ratio,omitempty"`
}

// report fills the derived Speedup field and forwards r to the Report
// hook when one is installed.
func (cfg Config) report(r Result) {
	if cfg.Report == nil {
		return
	}
	if r.Speedup == 0 && r.IncSeconds > 0 {
		r.Speedup = r.BatchSeconds / r.IncSeconds
	}
	cfg.Report(r)
}

// stopwatch runs f once and returns elapsed seconds.
func stopwatch(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// heapDelta measures the live-heap growth caused by build, returning its
// result and the growth in bytes. The keep parameter prevents the built
// structures from being collected before the second reading.
func heapDelta(build func() any) (any, int64) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	x := build()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if d < 0 {
		d = 0
	}
	return x, d
}

// table renders aligned rows under a title.
type table struct {
	w   *tabwriter.Writer
	out io.Writer
}

func newTable(out io.Writer, title string, header ...string) *table {
	fmt.Fprintf(out, "\n== %s ==\n", title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	t := &table{w: w, out: out}
	t.row(toAny(header)...)
	return t
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.4fs", v)
		default:
			fmt.Fprintf(t.w, "%v", v)
		}
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// mib formats bytes as MiB.
func mib(b int64) string { return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20)) }

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// speedup formats a baseline/measured ratio.
func speedup(base, inc float64) string {
	if inc <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", base/inc)
}
