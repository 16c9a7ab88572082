//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Noise calibration: -repeat runs every workload several times with
// consecutive seeds — as the driver does — and reports each metric's
// median, quartiles and spread; -selfcheck holds two such sets of the same
// build against the bounds in BENCHMARK.json.

// spreadRow is one metric × workload cell of a repeat set.
type spreadRow struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	RelIQR float64   `json:"rel_iqr"` // (q3 − q1) ÷ median
	Values []float64 `json:"values"`
}

// defs returns the metric list of the mode o.trace selects.
func defs(o options) []metricDef {
	if o.trace == 1 {
		return perLayer
	}
	return endToEnd
}

// runSeeds runs workload w once per seed, in order, and returns every
// metric's values in that order.
func (e env) runSeeds(o options, w workload, seeds []int64) (map[string][]float64, error) {
	values := map[string][]float64{}
	for _, seed := range seeds {
		line, _, err := e.oneRun(o, w, seed)
		if err != nil {
			return nil, fmt.Errorf("workload %s seed %d: %w", w.name, seed, err)
		}
		if !line.Correct {
			return nil, fmt.Errorf("workload %s seed %d: incorrect run", w.name, seed)
		}
		for name, v := range line.Metrics {
			values[name] = append(values[name], v.Value)
		}
		fmt.Fprintf(os.Stderr, "  %s seed %d done\n", w.name, seed)
	}
	return values, nil
}

// summarise prints one workload's table and returns its cells.
func summarise(o options, w workload, label string, values map[string][]float64) map[string]spreadRow {
	rows := map[string]spreadRow{}
	fmt.Printf("== %s: %s\n", w.name, label)
	fmt.Printf("  %-32s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "bound>=")
	for _, d := range defs(o) {
		xs := values[d.name]
		q1, q3 := quartiles(xs)
		row := spreadRow{Median: median(xs), Q1: q1, Q3: q3, RelIQR: relIQR(xs), Values: xs}
		rows[d.name] = row
		fmt.Printf("  %-32s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%\n",
			d.name, row.Median, q1, q3, 100*row.RelIQR, 100*derivedBound(row.RelIQR))
	}
	return rows
}

// repeatSet runs every workload o.repeat times with seeds seed, seed+1, …
// and prints the table and, as the last thing on standard output, the set
// as JSON (benchmark/spread.json records the same cells, from ten runs
// started the way the driver starts them).
func (e env) repeatSet(o options, ws []workload, seed int64) error {
	set := map[string]map[string]spreadRow{} // workload → metric → cell
	for _, w := range ws {
		seeds := make([]int64, o.repeat)
		for i := range seeds {
			seeds[i] = seed + int64(i)
		}
		values, err := e.runSeeds(o, w, seeds)
		if err != nil {
			return err
		}
		set[w.name] = summarise(o, w, fmt.Sprintf("%d runs, seeds %d..%d", o.repeat, seed, seeds[len(seeds)-1]), values)
	}
	out, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// derivedBound is the regression bound the observed spread supports:
// three times the relative interquartile range, and never under a tenth.
func derivedBound(relIQR float64) float64 { return math.Max(0.10, 3*relIQR) }

// bounds reads the end-to-end regression bounds from BENCHMARK.json in the
// current directory (the repository root).
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("selfcheck needs BENCHMARK.json (run from the repository root): %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// selfcheck runs two sets of the same build on disjoint seeds and fails if
// a metric's second median is worse than its first by more than its bound,
// or if a spread exceeds the bound (setup_s excepted, as in the driver).
// The two sets' runs alternate, so a slow spell of the host that outlasts a
// run falls on both sets alike.
func (e env) selfcheck(o options, ws []workload) error {
	if o.trace == 1 {
		return fmt.Errorf("-selfcheck checks the end-to-end metrics; run it with -trace 0")
	}
	if o.repeat == 0 {
		o.repeat = 5
	}
	bound, err := bounds()
	if err != nil {
		return err
	}
	var verdicts strings.Builder
	bad := 0
	for _, w := range ws {
		var seeds []int64
		for i := 0; i < o.repeat; i++ {
			seeds = append(seeds, o.seed+int64(i), o.seed+int64(o.repeat+i))
		}
		values, err := e.runSeeds(o, w, seeds)
		if err != nil {
			return err
		}
		halves := [2]map[string][]float64{{}, {}}
		for name, xs := range values {
			for i, x := range xs {
				halves[i%2][name] = append(halves[i%2][name], x)
			}
		}
		first := summarise(o, w, "first set", halves[0])
		second := summarise(o, w, "second set", halves[1])
		for _, d := range endToEnd {
			a, b := first[d.name], second[d.name]
			worse := (b.Median - a.Median) / a.Median
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > bound[d.name]:
				verdict = "DISAGREE"
			case d.name != "setup_s" && math.Max(a.RelIQR, b.RelIQR) > bound[d.name]:
				verdict = "TOO NOISY"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(&verdicts, "%-8s %-16s first %12.4f second %12.4f worse by %+6.1f%% spread %5.1f%%/%5.1f%% bound %4.0f%%  %s\n",
				w.name, d.name, a.Median, b.Median, 100*worse, 100*a.RelIQR, 100*b.RelIQR, 100*bound[d.name], verdict)
		}
	}
	fmt.Print(verdicts.String())
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric x workload pairs outside their bounds", bad)
	}
	fmt.Println("selfcheck: both sets agree within the bounds of BENCHMARK.json")
	return nil
}
