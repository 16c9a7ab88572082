package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Schema is the report document identifier incbench -json writes and
// Diff requires on both sides; bump it when Result's meaning changes
// incompatibly.
const Schema = "incgraph-bench/v1"

// Report is the JSON document incbench -json writes: the run's
// parameters plus every collected Result. Diff consumes two of these
// (a committed baseline and a fresh run) to gate perf regressions.
type Report struct {
	Schema     string   `json:"schema"`
	Experiment string   `json:"experiment"`
	Class      string   `json:"class"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	GoVersion  string   `json:"go_version"`
	UnixTime   int64    `json:"unix_time"`
	Results    []Result `json:"results"`
}

// ReadReport parses a report file and validates its schema marker, so a
// diff against the wrong kind of JSON fails loudly instead of reporting
// an empty comparison.
func ReadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return r, nil
}

// DiffEntry is one compared measurement cell: the baseline and current
// repair throughput (ops/sec, the reciprocal of IncSeconds) and
// boundedness quotient, with relative changes. Verdict is "ok",
// "regression" (bounded-ratio inflation beyond tolerance — the ledger
// is deterministic for a fixed seed, so it is gated per cell),
// "missing" (in the baseline, absent from the current run; a coverage
// loss, which fails) or "new" (the reverse; informational). Per-cell
// timing swings do NOT fail on their own: wall-clock noise at CI scale
// dwarfs the tolerance, so throughput is gated per experiment instead
// (see ExperimentDiff).
type DiffEntry struct {
	Key         string  `json:"key"`
	Experiment  string  `json:"experiment"`
	Verdict     string  `json:"verdict"`
	BaseOps     float64 `json:"base_ops,omitempty"`
	CurOps      float64 `json:"cur_ops,omitempty"`
	OpsChange   float64 `json:"ops_change,omitempty"`
	BaseRatio   float64 `json:"base_ratio,omitempty"`
	CurRatio    float64 `json:"cur_ratio,omitempty"`
	RatioChange float64 `json:"ratio_change,omitempty"`
}

// ExperimentDiff is the throughput gate for one experiment: the
// geometric mean of the per-cell ops/sec changes across all its
// compared cells. Averaging across cells cancels per-cell scheduler
// noise while a genuine slowdown — which hits every cell — still
// moves the mean; Verdict is "regression" when the geomean drops by
// more than the tolerance.
type ExperimentDiff struct {
	Experiment string  `json:"experiment"`
	Cells      int     `json:"cells"`
	OpsChange  float64 `json:"ops_change"`
	Verdict    string  `json:"verdict"`
}

// DiffReport is the outcome of comparing two bench reports.
type DiffReport struct {
	Tolerance   float64          `json:"tolerance"`
	Entries     []DiffEntry      `json:"entries"`
	Experiments []ExperimentDiff `json:"experiments"`
	Regressions []string         `json:"regressions,omitempty"`
}

// Failed reports whether any compared measurement regressed beyond the
// tolerance (or disappeared from the current run).
func (d *DiffReport) Failed() bool { return len(d.Regressions) > 0 }

// diffKey identifies a measurement across runs: the harness function,
// dataset, algorithm, workload and shard count together name one
// comparable cell of the evaluation.
func diffKey(r Result) string {
	k := fmt.Sprintf("%s/%s/%s/%s", r.Experiment, r.Dataset, r.Algo, r.Workload)
	if r.Workers > 0 {
		k += fmt.Sprintf("/w%d", r.Workers)
	}
	return k
}

// aggregate folds duplicate keys (a workload measured more than once in
// one run) into per-key means, so repeated cells do not skew the diff
// toward whichever copy appears last.
type aggregate struct {
	experiment string
	incSeconds float64
	ratio      float64
	n          int // measurements folded in
	nRatio     int // of which carried a boundedness quotient
}

func collect(rep Report) map[string]aggregate {
	m := make(map[string]aggregate, len(rep.Results))
	for _, r := range rep.Results {
		a := m[diffKey(r)]
		a.experiment = r.Experiment
		a.incSeconds += r.IncSeconds
		a.n++
		if r.BoundedRatio > 0 {
			a.ratio += r.BoundedRatio
			a.nRatio++
		}
		m[diffKey(r)] = a
	}
	return m
}

// Diff compares a current report against a baseline, flagging
// regressions beyond tolerance (a fraction: 0.15 = 15%) on two axes:
// repair throughput, gated per experiment on the geometric mean of its
// cells' ops/sec changes (per-cell wall-clock noise at CI scale far
// exceeds any usable tolerance; a real slowdown moves every cell and
// survives the averaging), and the work-ledger boundedness quotient,
// gated per cell — the ledger is deterministic for a fixed seed and
// scale, so any inflation is a genuine cost-model regression the clock
// could never resolve. A quotient that was exactly zero (the publish
// experiment's pages encoded per GET) is held to staying zero.
func Diff(baseline, current Report, tolerance float64) (*DiffReport, error) {
	if tolerance <= 0 {
		return nil, fmt.Errorf("bench: tolerance must be positive, got %v", tolerance)
	}
	for _, r := range []Report{baseline, current} {
		if r.Schema != Schema {
			return nil, fmt.Errorf("bench: report schema %q, want %q", r.Schema, Schema)
		}
	}
	if baseline.Seed != current.Seed || baseline.Scale != current.Scale {
		return nil, fmt.Errorf("bench: reports not comparable: baseline seed=%d scale=%g, current seed=%d scale=%g",
			baseline.Seed, baseline.Scale, current.Seed, current.Scale)
	}

	base, cur := collect(baseline), collect(current)
	// An experiment that reports quotients at all reports them for every
	// cell, so a cell of it without one measured an exact zero (no page
	// encoded), not nothing.
	countsZero := make(map[string]bool)
	for _, a := range base {
		if a.nRatio > 0 {
			countsZero[a.experiment] = true
		}
	}
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	d := &DiffReport{Tolerance: tolerance}
	logOps := make(map[string][]float64) // experiment -> ln(curOps/baseOps) per cell
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		e := DiffEntry{Key: k, Verdict: "ok"}
		switch {
		case !inCur:
			e.Experiment = b.experiment
			e.Verdict = "missing"
			d.Regressions = append(d.Regressions,
				fmt.Sprintf("%s: present in baseline, missing from current run", k))
		case !inBase:
			e.Experiment = c.experiment
			e.Verdict = "new"
		default:
			e.Experiment = b.experiment
			if b.incSeconds > 0 && c.incSeconds > 0 {
				e.BaseOps = float64(b.n) / b.incSeconds
				e.CurOps = float64(c.n) / c.incSeconds
				e.OpsChange = e.CurOps/e.BaseOps - 1
				logOps[e.Experiment] = append(logOps[e.Experiment], math.Log(e.CurOps/e.BaseOps))
			}
			if b.nRatio == 0 && c.nRatio > 0 && countsZero[b.experiment] {
				// No relative change to hold against the tolerance: a
				// count that was exactly zero rose.
				e.CurRatio = c.ratio / float64(c.nRatio)
				e.Verdict = "regression"
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s: bounded ratio 0 -> %.4g (was exactly zero)", k, e.CurRatio))
			}
			if b.nRatio > 0 && c.nRatio > 0 {
				e.BaseRatio = b.ratio / float64(b.nRatio)
				e.CurRatio = c.ratio / float64(c.nRatio)
				e.RatioChange = e.CurRatio/e.BaseRatio - 1
				if e.RatioChange > tolerance {
					e.Verdict = "regression"
					d.Regressions = append(d.Regressions,
						fmt.Sprintf("%s: bounded ratio %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)",
							k, e.BaseRatio, e.CurRatio, 100*e.RatioChange, 100*tolerance))
				}
			}
		}
		d.Entries = append(d.Entries, e)
	}

	exps := make([]string, 0, len(logOps))
	for exp := range logOps {
		exps = append(exps, exp)
	}
	sort.Strings(exps)
	for _, exp := range exps {
		ls := logOps[exp]
		var sum float64
		for _, l := range ls {
			sum += l
		}
		ed := ExperimentDiff{Experiment: exp, Cells: len(ls),
			OpsChange: math.Exp(sum/float64(len(ls))) - 1, Verdict: "ok"}
		if ed.OpsChange < -tolerance {
			ed.Verdict = "regression"
			d.Regressions = append(d.Regressions,
				fmt.Sprintf("%s: throughput geomean %+.1f%% across %d cells (tolerance %.0f%%)",
					exp, 100*ed.OpsChange, ed.Cells, 100*tolerance))
		}
		d.Experiments = append(d.Experiments, ed)
	}
	return d, nil
}

// WriteText renders the diff as an aligned table plus one line per
// regression and a PASS/FAIL trailer — the output the CI log shows.
func (d *DiffReport) WriteText(w io.Writer) {
	t := newTable(w, fmt.Sprintf("bench diff (tolerance %.0f%%)", 100*d.Tolerance),
		"Measurement", "ops/sec (base->cur)", "Δops", "bounded (base->cur)", "Δratio", "verdict")
	fmtPair := func(a, b float64) string {
		if a == 0 && b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g -> %.4g", a, b)
	}
	fmtDelta := func(ok bool, ch float64) string {
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*ch)
	}
	for _, e := range d.Entries {
		t.row(e.Key,
			fmtPair(e.BaseOps, e.CurOps), fmtDelta(e.BaseOps > 0, e.OpsChange),
			fmtPair(e.BaseRatio, e.CurRatio), fmtDelta(e.BaseRatio > 0, e.RatioChange),
			e.Verdict)
	}
	t.flush()
	te := newTable(w, "per-experiment throughput (geomean across cells)",
		"Experiment", "cells", "Δops", "verdict")
	for _, ed := range d.Experiments {
		te.row(ed.Experiment, ed.Cells, fmtDelta(true, ed.OpsChange), ed.Verdict)
	}
	te.flush()
	for _, r := range d.Regressions {
		fmt.Fprintf(w, "REGRESSION: %s\n", r)
	}
	if d.Failed() {
		fmt.Fprintf(w, "FAIL: %d regression(s) beyond %.0f%% tolerance\n",
			len(d.Regressions), 100*d.Tolerance)
	} else {
		fmt.Fprintf(w, "PASS: %d measurement(s) within %.0f%% tolerance\n",
			len(d.Entries), 100*d.Tolerance)
	}
}
