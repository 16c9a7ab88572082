package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// TestClassRegistry holds every registry entry to the class it names: the
// unrun class after Recompute is the maintainer its package's batch run
// builds (equal state bytes, equal view JSON), PersistState writes exactly
// the entry's vectors in their order, and the constraints refuse with the
// texts incgraphd and incgraph print — a directed graph for an
// undirected-only class (every other class takes one), a missing pattern,
// a source outside [0, |V|) as an int, 2³² included.
func TestClassRegistry(t *testing.T) {
	if got, want := ClassNames(), "sssp|cc|sim|dfs|lcc|bc"; got != want {
		t.Fatalf("ClassNames() = %q, want %q", got, want)
	}
	batchRun := map[string]func(g, q *graph.Graph) Serveable{
		"sssp": func(g, _ *graph.Graph) Serveable { return SSSP(sssp.NewInc(g, 3)) },
		"cc":   func(g, _ *graph.Graph) Serveable { return CC(cc.NewInc(g)) },
		"sim":  func(g, q *graph.Graph) Serveable { return Sim(sim.NewInc(g, q)) },
		"dfs":  func(g, _ *graph.Graph) Serveable { return DFS(dfs.NewInc(g)) },
		"lcc":  func(g, _ *graph.Graph) Serveable { return LCC(lcc.NewInc(g)) },
		"bc":   func(g, _ *graph.Graph) Serveable { return BC(bc.NewInc(g)) },
	}
	if len(batchRun) != len(Classes) {
		t.Fatalf("%d classes registered, %d checked", len(Classes), len(batchRun))
	}
	labeled := func(directed bool) *graph.Graph {
		g := gen.ErdosRenyi(rand.New(rand.NewSource(7)), 80, 200, directed)
		for v := range g.NumNodes() {
			g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
		}
		return g
	}
	view := func(m Serveable) []byte {
		b, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range Classes {
		t.Run(c.Name, func(t *testing.T) {
			ref := batchRun[c.Name]
			if ref == nil {
				t.Fatalf("no batch run for %s", c.Name)
			}
			p := Params{Src: 3, Pattern: opsPattern()}
			g := labeled(false)
			m, err := c.New(g.Clone(), p)
			if err != nil {
				t.Fatal(err)
			}
			if m.Algo() != c.Name {
				t.Fatalf("the entry builds class %q", m.Algo())
			}
			m.Recompute()
			want := ref(g.Clone(), opsPattern())
			state := persisted(t, m)
			if !bytes.Equal(state, persisted(t, want)) {
				t.Error("the state differs from the batch run's")
			}
			if !bytes.Equal(view(m), view(want)) {
				t.Error("the view differs from the batch run's")
			}
			if err := decodeState(state, c.Vecs, &classState{}); err != nil {
				t.Errorf("PersistState does not write vectors %v: %v", c.Vecs, err)
			}

			_, err = c.New(labeled(true), p)
			switch {
			case c.Undirected && (err == nil || err.Error() != c.Name+" needs an undirected graph"):
				t.Errorf("on a directed graph: %v", err)
			case !c.Undirected && err != nil:
				t.Errorf("refuses a directed graph: %v", err)
			}

			_, err = c.New(g.Clone(), Params{Src: 3})
			if c.Pattern != (err != nil) || c.Pattern && err.Error() != "sim needs -pattern" {
				t.Errorf("without a pattern: %v", err)
			}
			for _, src := range []int{-1, g.NumNodes(), 1 << 32} {
				_, err := c.New(g.Clone(), Params{Src: src, Pattern: opsPattern()})
				if want := fmt.Sprintf("sssp: source %d out of range", src); c.Source != (err != nil) || c.Source && err.Error() != want {
					t.Errorf("source %d: %v", src, err)
				}
			}
		})
	}
}
