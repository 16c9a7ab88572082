//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"incgraph"
	"incgraph/internal/graph"
)

// The correctness oracle is Theorem 1: after any stream, every published
// view must equal the batch algorithm run from scratch on G ⊕ ΔG. The
// benchmark's mirror graph is G ⊕ ΔG; building a fresh maintainer on it
// runs the batch algorithm, and its Snapshot is the expected view data —
// the same recompute equality the recovery verifier and the chaos
// differential use.

// newServeable builds the serving adapter of one query class on g, paying
// the batch run. The maintainer owns g afterwards.
func newServeable(algo string, g, pat *graph.Graph) (incgraph.Serveable, error) {
	switch algo {
	case "sssp":
		return incgraph.ServeSSSP(incgraph.NewIncSSSP(g, ssspSource), ssspSource), nil
	case "cc":
		return incgraph.ServeCC(incgraph.NewIncCC(g)), nil
	case "sim":
		if pat == nil {
			return nil, fmt.Errorf("sim needs a pattern")
		}
		return incgraph.ServeSim(incgraph.NewIncSim(g, pat)), nil
	case "dfs":
		return incgraph.ServeDFS(incgraph.NewIncDFS(g)), nil
	case "lcc":
		return incgraph.ServeLCC(incgraph.NewIncLCC(g)), nil
	case "bc":
		return incgraph.ServeBC(incgraph.NewIncBC(g)), nil
	}
	return nil, fmt.Errorf("unknown algo %q", algo)
}

// expectedViews recomputes every hosted class on a clone of the mirror
// and returns the JSON-decoded view data per class.
func expectedViews(algos []string, mirror, pat *graph.Graph) (map[string]any, error) {
	want := make(map[string]any, len(algos))
	for _, a := range algos {
		m, err := newServeable(a, mirror.Clone(), pat)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(m.Snapshot())
		if err != nil {
			return nil, err
		}
		v, err := decodeJSON(raw)
		if err != nil {
			return nil, err
		}
		want[a] = v
	}
	return want, nil
}

// decodeJSON decodes with json.Number so that int64 values beyond 2^53
// (graph.Infinity) compare exactly.
func decodeJSON(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

// checkViews fetches /query/{algo} for every hosted class from base —
// a daemon's own view or the router's merged answer, both carry the
// result under "data" — and compares it with want. The error names the
// first differing element.
func checkViews(ctx context.Context, conn *http.Client, base string, algos []string, want map[string]any) error {
	for _, a := range algos {
		var buf bytes.Buffer
		if _, err := getBody(ctx, conn, base+"/query/"+a, &buf); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		got, err := decodeJSON(buf.Bytes())
		if err != nil {
			return fmt.Errorf("oracle: %s view: %w", a, err)
		}
		env, _ := got.(map[string]any)
		if deg, _ := env["degraded"].(bool); deg {
			return fmt.Errorf("oracle: %s view is degraded", a)
		}
		if diff := firstDiff(a, env["data"], want[a]); diff != "" {
			return fmt.Errorf("oracle: view differs from recompute on the mirror graph at %s", diff)
		}
	}
	return nil
}

// firstDiff walks two decoded JSON values in lockstep and describes the
// first place they differ ("" when equal). The router's sssp answer omits
// nothing the daemon's has, so extra keys on either side are differences.
func firstDiff(path string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: got %T, want an object", path, got)
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := firstDiff(path+"."+k, g[k], w[k]); d != "" {
				return d
			}
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				return fmt.Sprintf("%s.%s: unexpected key", path, k)
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: got %T, want an array", path, got)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d elements, want %d", path, len(g), len(w))
		}
		for i := range w {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("%s: got %v, want %v", path, got, want)
	}
	return ""
}
