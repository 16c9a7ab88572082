package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
)

func newTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService()
	mk := func() *graph.Graph {
		g := graph.New(6, false)
		g.InsertEdge(0, 1, 2)
		g.InsertEdge(1, 2, 2)
		return g
	}
	if _, err := svc.Host(CC(cc.NewInc(mk())), Options{MaxWait: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(SSSP(sssp.NewInc(mk(), 0), 0), Options{MaxWait: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func postUpdate(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	var raw json.RawMessage
	json.NewDecoder(resp.Body).Decode(&raw)
	sb.Write(raw)
	return resp.StatusCode, sb.String()
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestHTTPQueryCompact: ?compact=1 is the same document without the
// indentation, and the default stays indented.
func TestHTTPQueryCompact(t *testing.T) {
	_, ts := newTestService(t)
	fetch := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: %d %q", url, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		return body
	}
	pretty, compact := fetch(ts.URL+"/query/sssp"), fetch(ts.URL+"/query/sssp?compact=1")
	if !bytes.Contains(pretty, []byte("\n  ")) || bytes.Contains(bytes.TrimSpace(compact), []byte("\n")) {
		t.Fatalf("default:\n%s\ncompact:\n%s", pretty, compact)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, pretty); err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(compact); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("compact view %s, want %s", got, want.Bytes())
	}
}

func TestHTTPUpdateQueryStats(t *testing.T) {
	svc, ts := newTestService(t)

	// A broadcast update containing an insert/delete churn pair: both
	// hosts absorb it, and both coalescers must fire.
	body := "+ 2 3 1\n+ 4 5 9\n- 4 5\n"
	code, resBody := postUpdate(t, ts.URL+"/update?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("update status %d: %s", code, resBody)
	}
	var res UpdateResult
	if err := json.Unmarshal([]byte(resBody), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || !res.Applied || len(res.Targets) != 2 {
		t.Fatalf("unexpected update result %+v", res)
	}

	// Query: labels must match a batch recompute on the updated graph.
	var view struct {
		Algo  string `json:"algo"`
		Epoch uint64 `json:"epoch"`
		Data  struct {
			Labels []int64 `json:"labels"`
		} `json:"data"`
	}
	if code := getJSON(t, ts.URL+"/query/cc", &view); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	want := graph.New(6, false)
	want.InsertEdge(0, 1, 2)
	want.InsertEdge(1, 2, 2)
	want.InsertEdge(2, 3, 1)
	if view.Epoch != 3 || !reflect.DeepEqual(view.Data.Labels, cc.CCfp(want)) {
		t.Fatalf("cc view %+v, want labels %v at epoch 3", view, cc.CCfp(want))
	}

	// Stats: the churn pair (+ 4 5 / - 4 5) must show up as coalesced.
	var stats map[string]Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		st, ok := stats[algo]
		if !ok {
			t.Fatalf("stats missing %q: %v", algo, stats)
		}
		if st.UpdatesCoalesced == 0 {
			t.Fatalf("%s: churn pair not coalesced: %+v", algo, st)
		}
		if st.UpdatesApplied != 3 || st.QueueDepth != 0 {
			t.Fatalf("%s: %+v", algo, st)
		}
	}

	// Targeted update only reaches the named host.
	code, _ = postUpdate(t, ts.URL+"/update?algo=sssp&wait=1", "+ 0 3 4\n")
	if code != http.StatusOK {
		t.Fatalf("targeted update status %d", code)
	}
	if e := svc.Get("sssp").View().Epoch; e != 4 {
		t.Fatalf("sssp epoch %d, want 4", e)
	}
	if e := svc.Get("cc").View().Epoch; e != 3 {
		t.Fatalf("cc epoch %d, want 3", e)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestService(t)
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed line", "/update", "bogus line\n", http.StatusBadRequest},
		{"negative weight", "/update", "+ 0 1 -5\n", http.StatusBadRequest},
		{"weight MaxInt64 would wrap d+W", "/update", "+ 0 1 9223372036854775807\n", http.StatusBadRequest},
		{"weight at Infinity", "/update", fmt.Sprintf("+ 0 1 %d\n", graph.Infinity), http.StatusBadRequest},
		{"out of range", "/update", "+ 0 99 1\n", http.StatusBadRequest},
		{"unknown target", "/update?algo=nope", "+ 0 1 1\n", http.StatusNotFound},
	}
	for _, tc := range cases {
		code, body := postUpdate(t, ts.URL+tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
	}
	// Parse errors carry the offending line number.
	code, body := postUpdate(t, ts.URL+"/update", "+ 0 1 1\nbroken\n")
	if code != http.StatusBadRequest || !strings.Contains(body, "line 2") {
		t.Fatalf("want line-numbered 400, got %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/query/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query unknown algo: %d", resp.StatusCode)
	}
}

func TestServiceDuplicateAlgo(t *testing.T) {
	svc := NewService()
	g := graph.New(2, false)
	if _, err := svc.Host(CC(cc.NewInc(g)), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(CC(cc.NewInc(graph.New(2, false))), Options{}); err == nil {
		t.Fatal("duplicate algo registered")
	}
	svc.Close()
}
