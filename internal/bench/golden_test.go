package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The files under testdata/golden hold the output shape of every
// table-driven experiment at tinyCfg: its tables with the timing cells
// masked, then the non-timing fields of every Result it reports. A title,
// header, row label, column or count that moves fails checkGolden.

var (
	cellSep    = regexp.MustCompile(`\s{2,}`)
	timingCell = regexp.MustCompile(`^\d+\.\d+(s|ms|MiB|x)$`)
	// timingColumn names the columns derived from timings whose cells
	// carry no unit that timingCell would recognise.
	timingColumn = map[string]bool{"h-fraction": true, "A/A_Δ": true}
)

// maskTables rewrites printed tables one row a line, cells joined by " | ",
// with every seconds, milliseconds, MiB and speedup cell and every cell of
// a timingColumn replaced by "~". Titles stay as printed.
func maskTables(out string) string {
	var b strings.Builder
	var header []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "== "):
			b.WriteString(line + "\n")
			header = nil
		default:
			cells := cellSep.Split(strings.TrimRight(line, " "), -1)
			if header == nil {
				header = cells
			} else {
				for i, c := range cells {
					if timingCell.MatchString(c) || (i < len(header) && timingColumn[header[i]]) {
						cells[i] = "~"
					}
				}
			}
			b.WriteString(strings.Join(cells, " | ") + "\n")
		}
	}
	return b.String()
}

// resultLine renders r's non-timing fields.
func resultLine(r Result) string {
	return fmt.Sprintf("%s %s %s %s aff=%d workers=%d work=%d ratio=%g\n",
		r.Experiment, r.Dataset, r.Algo, r.Workload, r.Affected, r.Workers, r.Work, r.BoundedRatio)
}

// checkGolden runs f at tinyCfg and compares its masked tables and its
// Results with testdata/golden/<name>.txt.
func checkGolden(t *testing.T, name string, f func(Config)) {
	t.Helper()
	var buf bytes.Buffer
	var results strings.Builder
	cfg := tinyCfg(&buf)
	cfg.Report = func(r Result) { results.WriteString(resultLine(r)) }
	f(cfg)
	got := maskTables(buf.String())
	if results.Len() > 0 {
		got += "-- results --\n" + results.String()
	}
	path := filepath.Join("testdata", "golden", name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s moved. Masked output:\n%s\nwant:\n%s", path, got, want)
	}
}
