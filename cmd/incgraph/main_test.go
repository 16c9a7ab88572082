package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"incgraph"
)

func writeGraphFile(t *testing.T, g *incgraph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func demoGraph(directed bool) *incgraph.Graph {
	g := incgraph.NewGraph(4, directed)
	g.InsertEdge(0, 1, 2)
	g.InsertEdge(1, 2, 2)
	g.InsertEdge(2, 3, 2)
	return g
}

func TestRunSSSP(t *testing.T) {
	g := demoGraph(true)
	var buf bytes.Buffer
	if err := run(&buf, "sssp", g, "", 0, nil, false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "batch:") || !strings.Contains(out, "3 6") {
		t.Fatalf("output missing pieces:\n%s", out)
	}
}

func TestRunSSSPWithUpdates(t *testing.T) {
	g := demoGraph(true)
	delta := incgraph.Batch{{Kind: incgraph.InsertEdge, From: 0, To: 3, W: 1}}
	var buf bytes.Buffer
	if err := run(&buf, "sssp", g, "", 0, delta, false, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "incremental:") || !strings.Contains(buf.String(), "3 1") {
		t.Fatalf("update not applied:\n%s", buf.String())
	}
	// -stats surfaces the boundedness counters for engine-based classes.
	for _, want := range []string{"affected:", "|ΔG|=1", "inspected:", "h/resume:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in -stats output:\n%s", want, buf.String())
		}
	}
}

// TestRunStats: -stats prints the apply's work ledger for every class,
// and the inspection count and h/resume split only for classes on the
// fixpoint engine.
func TestRunStats(t *testing.T) {
	g := demoGraph(false)
	delta := incgraph.Batch{{Kind: incgraph.InsertEdge, From: 0, To: 3, W: 1}}
	for _, tc := range []struct {
		algo   string
		engine bool
	}{{"cc", true}, {"lcc", false}} {
		var buf bytes.Buffer
		if err := run(&buf, tc.algo, g.Clone(), "", 0, delta, true, true); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		out := buf.String()
		var work int
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "work:" {
				work, _ = strconv.Atoi(f[1])
			}
		}
		if !strings.Contains(out, "affected:") || work <= 0 {
			t.Fatalf("%s: no work ledger in -stats output:\n%s", tc.algo, out)
		}
		if strings.Contains(out, "inspected:") != tc.engine || strings.Contains(out, "h/resume:") != tc.engine {
			t.Fatalf("%s: engine counters shown = %v, want %v:\n%s", tc.algo, !tc.engine, tc.engine, out)
		}
	}
}

func TestRunCCDFS(t *testing.T) {
	for _, algo := range []string{"cc", "dfs"} {
		var buf bytes.Buffer
		if err := run(&buf, algo, demoGraph(algo == "dfs"), "", 0, nil, false, false); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", algo)
		}
	}
}

func TestRunLCCBCRejectDirected(t *testing.T) {
	for _, algo := range []string{"lcc", "bc"} {
		var buf bytes.Buffer
		if err := run(&buf, algo, demoGraph(true), "", 0, nil, true, false); err == nil {
			t.Fatalf("%s accepted a directed graph", algo)
		}
	}
}

func TestRunLCCBCUndirected(t *testing.T) {
	g := demoGraph(false)
	g.InsertEdge(0, 2, 1) // close a triangle
	for _, algo := range []string{"lcc", "bc"} {
		var buf bytes.Buffer
		if err := run(&buf, algo, g.Clone(), "", 0, nil, false, false); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestRunSimNeedsPattern(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "sim", demoGraph(true), "", 0, nil, true, false); err == nil {
		t.Fatal("sim without pattern accepted")
	}
}

func TestRunSimWithPattern(t *testing.T) {
	q := incgraph.NewGraph(2, true)
	q.InsertEdge(0, 1, 1)
	qPath := writeGraphFile(t, q)
	var buf bytes.Buffer
	if err := run(&buf, "sim", demoGraph(true), qPath, 0, nil, true, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matches:") {
		t.Fatalf("no match count:\n%s", buf.String())
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", demoGraph(true), "", 0, nil, true, false); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

func writeTextFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLI drives the binary entry point end to end: usage errors (missing
// or unknown -algo) must exit 2 with a usage message, runtime errors must
// exit 1, and valid invocations must exit 0.
func TestCLI(t *testing.T) {
	graphPath := writeGraphFile(t, demoGraph(true))
	goodUpdates := writeTextFile(t, "u.txt", "+ 0 2 1\n- 1 2\n")
	rangeUpdates := writeTextFile(t, "bad.txt", "+ 0 9 1\n")
	malformed := writeTextFile(t, "mal.txt", "+ 0 1 1\nnot an update\n")

	cases := []struct {
		name     string
		args     []string
		exit     int
		inStderr string // substring required in stderr, "" to skip
		inStdout string // substring required in stdout, "" to skip
	}{
		{
			name:     "missing algo",
			args:     []string{"-graph", graphPath},
			exit:     2,
			inStderr: "missing -algo",
		},
		{
			name:     "missing algo prints usage",
			args:     []string{"-graph", graphPath},
			exit:     2,
			inStderr: "usage:",
		},
		{
			name:     "unknown algo",
			args:     []string{"-algo", "pagerank", "-graph", graphPath},
			exit:     2,
			inStderr: `unknown -algo "pagerank"`,
		},
		{
			name:     "unknown algo prints usage",
			args:     []string{"-algo", "pagerank", "-graph", graphPath},
			exit:     2,
			inStderr: "usage:",
		},
		{
			name:     "sssp runs",
			args:     []string{"-algo", "sssp", "-graph", graphPath},
			exit:     0,
			inStdout: "3 6", // node 3 at distance 2+2+2
		},
		{
			name:     "sssp with updates",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-updates", goodUpdates},
			exit:     0,
			inStdout: "incremental",
		},
		{
			name:     "sssp source past the graph",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-src", "999"},
			exit:     1,
			inStderr: "source 999 out of range",
		},
		{
			name:     "negative sssp source",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-src", "-1"},
			exit:     1,
			inStderr: "source -1 out of range",
		},
		{
			// 2³² wraps to node 0 as a NodeID.
			name:     "sssp source past 32 bits",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-src", "4294967296"},
			exit:     1,
			inStderr: "source 4294967296 out of range",
		},
		{
			name:     "missing graph",
			args:     []string{"-algo", "cc"},
			exit:     1,
			inStderr: "missing -graph",
		},
		{
			name:     "out-of-range update rejected",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-updates", rangeUpdates},
			exit:     1,
			inStderr: "out of range",
		},
		{
			name:     "malformed update line numbered",
			args:     []string{"-algo", "sssp", "-graph", graphPath, "-updates", malformed},
			exit:     1,
			inStderr: "line 2",
		},
		{
			name:     "bad flag",
			args:     []string{"-bogus"},
			exit:     2,
			inStderr: "flag provided but not defined",
		},
		{
			name:     "gen powerlaw",
			args:     []string{"-gen", "powerlaw", "-nodes", "20", "-deg", "3"},
			exit:     0,
			inStdout: "graph undirected 20",
		},
		{
			name:     "gen unknown",
			args:     []string{"-gen", "mystery"},
			exit:     1,
			inStderr: "unknown generator",
		},
		{
			name:     "genupdates needs graph",
			args:     []string{"-genupdates", "5"},
			exit:     1,
			inStderr: "missing -graph",
		},
		{
			name:     "genupdates runs",
			args:     []string{"-genupdates", "5", "-graph", graphPath},
			exit:     0,
			inStdout: " ",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cliMain(tc.args, &stdout, &stderr)
			if got != tc.exit {
				t.Fatalf("exit %d, want %d (stderr: %s)", got, tc.exit, stderr.String())
			}
			if tc.inStderr != "" && !strings.Contains(stderr.String(), tc.inStderr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.inStderr)
			}
			if tc.inStdout != "" && !strings.Contains(stdout.String(), tc.inStdout) {
				t.Fatalf("stdout %q does not contain %q", stdout.String(), tc.inStdout)
			}
		})
	}
}

func TestLoadGraph(t *testing.T) {
	path := writeGraphFile(t, demoGraph(true))
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if _, err := loadGraph(""); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}
