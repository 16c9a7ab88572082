package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkReport builds a comparable report around a result set.
func mkReport(results ...Result) Report {
	return Report{Schema: Schema, Experiment: "exp2", Class: "all",
		Seed: 1, Scale: 0.1, GoVersion: "go", Results: results}
}

func res(exp, ds, wl string, incSec, ratio float64) Result {
	return Result{Experiment: exp, Dataset: ds, Algo: "IncX", Workload: wl,
		BatchSeconds: 1, IncSeconds: incSec, Work: int64(100 * ratio), BoundedRatio: ratio}
}

// TestDiffIdenticalPasses holds a report against itself: every entry
// ok, no regressions.
func TestDiffIdenticalPasses(t *testing.T) {
	rep := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.5),
		res("exp2-cc", "OKT", "|ΔG|=1%", 0.020, 2.0),
	)
	d, err := Diff(rep, rep)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() || len(d.Entries) != 2 {
		t.Fatalf("diff failed on identical reports: %+v", d)
	}
	for _, e := range d.Entries {
		if e.Verdict != "ok" || e.OpsChange != 0 || e.BaseRatio != e.CurRatio {
			t.Errorf("entry not clean: %+v", e)
		}
	}
	if len(d.Experiments) != 2 {
		t.Fatalf("experiment rows: %+v", d.Experiments)
	}
	for _, ed := range d.Experiments {
		if ed.OpsChange != 0 {
			t.Errorf("experiment row not clean: %+v", ed)
		}
	}
}

// TestDiffThroughputRegression slows every cell of one experiment by a
// third: the per-experiment geomean reports it, and the diff still
// passes — at CI scale one binary's cells spread 2–3× between runs, so
// throughput is read, not gated.
func TestDiffThroughputRegression(t *testing.T) {
	base := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.5),
		res("exp2-sssp", "FS", "|ΔG|=4%", 0.012, 3.0),
		res("exp2-cc", "OKT", "|ΔG|=1%", 0.020, 2.0),
	)
	cur := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.015, 3.5), // -33% throughput
		res("exp2-sssp", "FS", "|ΔG|=4%", 0.017, 3.0), // -29%
		res("exp2-cc", "OKT", "|ΔG|=1%", 0.021, 2.0),  // -4.8%
	)
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() {
		t.Fatalf("a throughput change failed the diff: %v", d.Regressions)
	}
	if len(d.Experiments) != 2 || d.Experiments[1].Experiment != "exp2-sssp" || d.Experiments[1].OpsChange > -0.3 {
		t.Fatalf("want exp2-sssp's geomean reported near -31%%: %+v", d.Experiments)
	}
}

// TestDiffPerCellNoiseTolerated: one cell 25% slower amid flat
// neighbors is scheduler noise, not a regression.
func TestDiffPerCellNoiseTolerated(t *testing.T) {
	base := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.5),
		res("exp2-sssp", "FS", "|ΔG|=4%", 0.010, 3.0),
		res("exp2-sssp", "FS", "|ΔG|=8%", 0.010, 2.5),
	)
	cur := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.0133, 3.5), // -25%
		res("exp2-sssp", "FS", "|ΔG|=4%", 0.0091, 3.0), // +10%
		res("exp2-sssp", "FS", "|ΔG|=8%", 0.0091, 2.5), // +10%
	)
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() {
		t.Fatalf("noise flagged as regression: %v", d.Regressions)
	}
	if len(d.Experiments) != 1 || d.Experiments[0].Cells != 3 {
		t.Fatalf("experiment row: %+v", d.Experiments)
	}
}

// TestDiffBoundedRatioInflation inflates one boundedness quotient;
// timings are unchanged, so only the counts can catch it. The counts are
// exact: any change fails, deflation included — an intended one comes
// with a regenerated baseline row.
func TestDiffBoundedRatioInflation(t *testing.T) {
	base := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0))
	cur := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 4.0)) // +33%
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Failed() || len(d.Regressions) != 1 {
		t.Fatalf("want one regression, got %v", d.Regressions)
	}
	if !strings.Contains(d.Regressions[0], "bounded ratio") {
		t.Fatalf("regression text: %s", d.Regressions[0])
	}

	// Deflation and a change the old 15% tolerance let through fail too,
	// and so do work or |AFF| moving under an equal quotient.
	moved := []Result{
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 2.0),
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.3),
		{Experiment: "exp2-sssp", Dataset: "FS", Algo: "IncX", Workload: "|ΔG|=2%", IncSeconds: 0.010, Work: 301, BoundedRatio: 3.0},
		{Experiment: "exp2-sssp", Dataset: "FS", Algo: "IncX", Workload: "|ΔG|=2%", IncSeconds: 0.010, Work: 300, BoundedRatio: 3.0, Affected: 7},
	}
	for _, r := range moved {
		d, err := Diff(base, mkReport(r))
		if err != nil {
			t.Fatal(err)
		}
		if !d.Failed() {
			t.Fatalf("%+v passed against %+v", r, base.Results[0])
		}
	}
}

// TestDiffZeroCountHeld: a cell whose baseline count is exactly zero
// (publish: no page encoded per GET) fails when it rises, by however
// little, and so does one of an experiment that reported no counts at
// all; staying zero passes.
func TestDiffZeroCountHeld(t *testing.T) {
	base := mkReport(
		res("publish", "PL", "pages_copied/apply", 0, 3.3),
		res("publish", "PL", "pages_encoded/get@200", 0, 0),
		res("exp1", "FS", "unit", 0.010, 0),
	)
	cur := mkReport(
		res("publish", "PL", "pages_copied/apply", 0, 3.3),
		res("publish", "PL", "pages_encoded/get@200", 0, 0.5),
		res("exp1", "FS", "unit", 0.010, 2),
	)
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 2 || !strings.Contains(d.Regressions[0], "exp1/FS") ||
		!strings.Contains(d.Regressions[1], "pages_encoded/get@200") || !strings.Contains(d.Regressions[1], "0 -> 0.5") {
		t.Fatalf("want the two zero counts that rose, got %v", d.Regressions)
	}
	if d, _ := Diff(base, base); d.Failed() {
		t.Fatalf("a zero that stayed zero flagged: %v", d.Regressions)
	}
}

// TestDiffMissingAndNew: a baseline cell that vanished fails the gate
// (coverage loss), a new cell is informational.
func TestDiffMissingAndNew(t *testing.T) {
	base := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0),
		res("exp2-cc", "OKT", "|ΔG|=1%", 0.020, 2.0),
	)
	cur := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0),
		res("exp2-lcc", "LJ", "|ΔG|=2%", 0.030, 5.0),
	)
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0], "missing") {
		t.Fatalf("missing cell not flagged: %v", d.Regressions)
	}
	verdicts := map[string]string{}
	for _, e := range d.Entries {
		verdicts[e.Key] = e.Verdict
	}
	if verdicts["exp2-cc/OKT/IncX/|ΔG|=1%"] != "missing" {
		t.Fatalf("verdicts: %v", verdicts)
	}
	if verdicts["exp2-lcc/LJ/IncX/|ΔG|=2%"] != "new" {
		t.Fatalf("verdicts: %v", verdicts)
	}
}

// TestDiffDuplicateKeysAveraged folds two measurements of one cell into
// a mean, so the comparison is order-independent.
func TestDiffDuplicateKeysAveraged(t *testing.T) {
	base := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0),
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.030, 5.0),
	)
	// Mean inc time 0.020 either way; duplicate order reversed.
	cur := mkReport(
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.030, 5.0),
		res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0),
	)
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() || len(d.Entries) != 1 {
		t.Fatalf("diff: %+v", d)
	}
	if e := d.Entries[0]; e.BaseOps != e.CurOps || e.BaseRatio != 4.0 {
		t.Fatalf("aggregation wrong: %+v", e)
	}
}

// TestDiffRejectsIncomparable: schema mismatches and seed/scale drift
// are errors, not silent passes.
func TestDiffRejectsIncomparable(t *testing.T) {
	good := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0))
	bad := good
	bad.Schema = "incgraph-bench/v0"
	if _, err := Diff(good, bad); err == nil {
		t.Error("schema mismatch accepted")
	}
	drift := good
	drift.Scale = 1.0
	if _, err := Diff(good, drift); err == nil {
		t.Error("scale drift accepted")
	}
}

// TestReadReportRoundTrip writes a report the way incbench does and
// reads it back; a schema-less file is rejected.
func TestReadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	want := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0))
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != want.Seed || len(got.Results) != 1 || got.Results[0] != want.Results[0] {
		t.Fatalf("round trip: %+v", got)
	}

	if err := os.WriteFile(path, []byte(`{"results": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Error("schema-less report accepted")
	}
}

// TestDiffTextOutput checks the human rendering carries the verdicts
// and the FAIL trailer CI greps for.
func TestDiffTextOutput(t *testing.T) {
	base := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.010, 3.0))
	cur := mkReport(res("exp2-sssp", "FS", "|ΔG|=2%", 0.020, 3.5))
	d, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	d.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"regression", "REGRESSION:", "FAIL:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	d, _ = Diff(base, base)
	sb.Reset()
	d.WriteText(&sb)
	if !strings.Contains(sb.String(), "PASS:") {
		t.Errorf("pass output:\n%s", sb.String())
	}
}
