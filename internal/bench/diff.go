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
// repair throughput (ops/sec, the reciprocal of IncSeconds, reported
// only) and boundedness quotient (the ledger's, or a publish or exchange
// count per operation). Verdict is "ok", "regression" (|AFF|, work or
// the quotient differs: they repeat exactly for a fixed seed and scale,
// so any difference is a change in what the code does, and an intended
// one comes with a regenerated baseline row), "missing" (in the
// baseline, absent from the current run; a coverage loss, which fails)
// or "new" (the reverse; informational).
type DiffEntry struct {
	Key        string  `json:"key"`
	Experiment string  `json:"experiment"`
	Verdict    string  `json:"verdict"`
	BaseOps    float64 `json:"base_ops,omitempty"`
	CurOps     float64 `json:"cur_ops,omitempty"`
	OpsChange  float64 `json:"ops_change,omitempty"`
	BaseRatio  float64 `json:"base_ratio,omitempty"`
	CurRatio   float64 `json:"cur_ratio,omitempty"`
}

// ExperimentDiff is one experiment's throughput change: the geometric
// mean of the per-cell ops/sec changes across its compared cells. It is
// reported, not gated — at CI scale one binary's cells spread 2–3×
// between runs, so a threshold on it fails commits at random.
type ExperimentDiff struct {
	Experiment string  `json:"experiment"`
	Cells      int     `json:"cells"`
	OpsChange  float64 `json:"ops_change"`
}

// DiffReport is the outcome of comparing two bench reports.
type DiffReport struct {
	Entries     []DiffEntry      `json:"entries"`
	Experiments []ExperimentDiff `json:"experiments"`
	Regressions []string         `json:"regressions,omitempty"`
}

// Failed reports whether any count differed or a measurement
// disappeared from the current run.
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
	experiment            string
	incSeconds            float64
	affected, work, ratio float64
	n                     int // measurements folded in
}

func collect(rep Report) map[string]aggregate {
	m := make(map[string]aggregate, len(rep.Results))
	for _, r := range rep.Results {
		a := m[diffKey(r)]
		a.experiment = r.Experiment
		a.incSeconds += r.IncSeconds
		a.affected += float64(r.Affected)
		a.work += float64(r.Work)
		a.ratio += r.BoundedRatio
		a.n++
		m[diffKey(r)] = a
	}
	for k, a := range m {
		a.affected, a.work, a.ratio = a.affected/float64(a.n), a.work/float64(a.n), a.ratio/float64(a.n)
		m[k] = a
	}
	return m
}

// Diff compares a current report against a baseline. Every cell's counts
// — |AFF|, work and boundedness quotient, which for a fixed seed and
// scale repeat exactly — must equal the baseline's, and every baseline
// cell must be present. Repair throughput is reported per cell and per
// experiment (the geometric mean of its cells' ops/sec changes) and fails
// nothing.
func Diff(baseline, current Report) (*DiffReport, error) {
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

	d := &DiffReport{}
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
			e.BaseRatio, e.CurRatio = b.ratio, c.ratio
			if b.ratio != c.ratio || b.work != c.work || b.affected != c.affected {
				e.Verdict = "regression"
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s: counts moved: bounded ratio %.6g -> %.6g, work %.6g -> %.6g, affected %.6g -> %.6g",
						k, b.ratio, c.ratio, b.work, c.work, b.affected, c.affected))
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
		d.Experiments = append(d.Experiments, ExperimentDiff{Experiment: exp, Cells: len(ls),
			OpsChange: math.Exp(sum/float64(len(ls))) - 1})
	}
	return d, nil
}

// WriteText renders the diff as an aligned table plus one line per
// regression and a PASS/FAIL trailer — the output the CI log shows.
func (d *DiffReport) WriteText(w io.Writer) {
	t := newTable(w, "bench diff (counts exact; throughput reported, not gated)",
		"Measurement", "ops/sec (base->cur)", "Δops", "bounded (base->cur)", "verdict")
	fmtPair := func(a, b float64) string {
		if a == 0 && b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g -> %.4g", a, b)
	}
	for _, e := range d.Entries {
		ops := "-"
		if e.BaseOps > 0 {
			ops = fmt.Sprintf("%+.1f%%", 100*e.OpsChange)
		}
		t.row(e.Key, fmtPair(e.BaseOps, e.CurOps), ops, fmtPair(e.BaseRatio, e.CurRatio), e.Verdict)
	}
	t.flush()
	te := newTable(w, "per-experiment throughput (geomean across cells, reported only)",
		"Experiment", "cells", "Δops")
	for _, ed := range d.Experiments {
		te.row(ed.Experiment, ed.Cells, fmt.Sprintf("%+.1f%%", 100*ed.OpsChange))
	}
	te.flush()
	for _, r := range d.Regressions {
		fmt.Fprintf(w, "REGRESSION: %s\n", r)
	}
	if d.Failed() {
		fmt.Fprintf(w, "FAIL: %d regression(s)\n", len(d.Regressions))
	} else {
		fmt.Fprintf(w, "PASS: %d measurement(s), every count exact\n", len(d.Entries))
	}
}
