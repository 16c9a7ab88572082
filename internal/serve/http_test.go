package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
)

func newTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService()
	g := graph.New(6, false) // the one graph both classes share, as the daemon's do
	g.InsertEdge(0, 1, 2)
	g.InsertEdge(1, 2, 2)
	if _, err := svc.Host(CC(cc.NewInc(g)), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Host(SSSP(sssp.NewInc(g, 0)), Options{}); err != nil {
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

// TestHTTPQueryCompact: a view has one wire form — json.Marshal of it and
// a newline — and ?compact=1, which used to select that form, is an unread
// parameter: the bare route answers the same bytes.
func TestHTTPQueryCompact(t *testing.T) {
	svc, ts := newTestService(t)
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
	for _, path := range []string{"/query/sssp?", "/query/cc?", "/query/sssp?range=1:3&"} {
		bare, compact := fetch(ts.URL+path), fetch(ts.URL+path+"compact=1")
		if !bytes.Equal(bare, compact) {
			t.Errorf("%s: bare route\n%s\nwith compact=1\n%s", path, bare, compact)
		}
	}
	want, err := json.Marshal(svc.Get("sssp").View())
	if err != nil {
		t.Fatal(err)
	}
	if got := fetch(ts.URL + "/query/sssp"); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("view %q, want json.Marshal's %q and a newline", got, want)
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

	// Every update reaches every host; one naming a class is refused and
	// reaches none.
	code, _ = postUpdate(t, ts.URL+"/update?wait=1", "+ 0 3 4\n")
	if code != http.StatusOK {
		t.Fatalf("second update status %d", code)
	}
	for _, url := range []string{"/update?algo=sssp&wait=1", "/update?algo=&wait=1", "/update?wait=1&algo=nope"} {
		if code, body := postUpdate(t, ts.URL+url, "+ 1 4 4\n"); code != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400 (%s)", url, code, body)
		}
	}
	for _, algo := range []string{"sssp", "cc"} {
		if e := svc.Get(algo).View().Epoch; e != 4 {
			t.Fatalf("%s epoch %d, want 4", algo, e)
		}
		if st := svc.Get(algo).Stats(); st.UpdatesReceived != 4 {
			t.Fatalf("%s received %d updates, want 4", algo, st.UpdatesReceived)
		}
	}
}

// TestUpdateResultBytes: POST /update's hand-written reply is writeJSON's
// bytes, over random results — odd algo names (quotes, HTML, control
// bytes, U+2028, invalid UTF-8), nil and empty targets, nil and empty
// epochs.
func TestUpdateResultBytes(t *testing.T) {
	odd := []string{"", "sssp", "cc", `a"b`, `back\slash`, "<lt>&amp;", "tab\tnew\nline", "\x00\x1f", "\u2028\u2029", "héllo", "\xff\xfe", "日本"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := func() string {
			if rng.Intn(2) == 0 {
				return odd[rng.Intn(len(odd))]
			}
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		}
		res := UpdateResult{Accepted: rng.Intn(1 << 20), Applied: rng.Intn(2) == 0, TraceID: name()}
		if rng.Intn(4) == 0 {
			res.Accepted = -res.Accepted
		}
		if k := rng.Intn(5); k > 0 {
			res.Targets = make([]string, k-1)
			for i := range res.Targets {
				res.Targets[i] = name()
			}
		}
		if k := rng.Intn(5); k > 0 {
			res.Epochs = make(map[string]uint64)
			for range k - 1 {
				res.Epochs[name()] = rng.Uint64() >> rng.Intn(64)
			}
		}
		rr := httptest.NewRecorder()
		writeJSON(rr, http.StatusOK, res)
		if got := appendUpdateResult(nil, &res); !bytes.Equal(got, rr.Body.Bytes()) {
			t.Logf("%+v:\n got %q\nwant %q", res, got, rr.Body.Bytes())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
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
		{"ids past 2^32 that alias nodes 0 and 5", "/update?wait=1", "+ 4294967296 4294967301 7\n", http.StatusBadRequest},
		{"id 2^31", "/update?wait=1", "+ 2147483648 1 7\n", http.StatusBadRequest},
		{"targeted at a class", "/update?algo=cc", "+ 0 1 1\n", http.StatusBadRequest},
		{"targeted at an unknown class", "/update?algo=nope", "+ 0 1 1\n", http.StatusBadRequest},
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

// unencodable is a Serveable whose snapshot encoding/json refuses.
type unencodable struct{ slowServeable }

func (*unencodable) Algo() string  { return "broken" }
func (*unencodable) Snapshot() any { return map[string]any{"f": func() {}} }

// TestHTTPQueryEncodeFailureIs500: the answer is assembled before the
// header goes out, so a view that cannot be encoded is a 500 with the
// JSON error envelope — it used to be a 200 whose body stopped where the
// encoder gave up — and every answer that does go out says how long it is.
func TestHTTPQueryEncodeFailureIs500(t *testing.T) {
	svc, ts := newTestService(t)
	if _, err := svc.Host(&unencodable{slowServeable{g: graph.New(6, false)}}, Options{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/query/broken")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(body["error"], "unsupported type") {
		t.Errorf("broken: status %d, body %v (%v); want 500 naming the unsupported type", resp.StatusCode, body, err)
	}
	for _, path := range []string{"/query/sssp", "/query/cc", "/query/sssp?range=1:3"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: status %d, Content-Length %d for %d bytes, transfer encoding %v", path,
				resp.StatusCode, resp.ContentLength, len(body), resp.TransferEncoding)
		}
	}
}

// rangedView is what a /query answer decodes to for the range tests.
type rangedView struct {
	Epoch uint64  `json:"epoch"`
	Range *[2]int `json:"range"`
	Data  struct {
		Src    *int    `json:"src"`
		Dist   []int64 `json:"dist"`
		Labels []int64 `json:"labels"`
	} `json:"data"`
}

// TestHTTPQueryRange: ?range=lo:hi cuts the per-node vectors to the
// half-open node range, keeps the scalars, echoes the range, and
// rejects anything that is not one well-formed in-bounds range with a
// 400 naming the value.
func TestHTTPQueryRange(t *testing.T) {
	_, ts := newTestService(t) // 6 nodes; sssp from 0 over 0-1-2: dist 0 2 4 ∞ ∞ ∞
	var full rangedView
	getJSON(t, ts.URL+"/query/sssp", &full)
	if full.Range != nil || len(full.Data.Dist) != 6 {
		t.Fatalf("full view: %+v", full)
	}
	for _, tc := range []struct {
		q      string
		lo, hi int
	}{{"0:6", 0, 6}, {"1:3", 1, 3}, {"2:3", 2, 3}, {"4:4", 4, 4}, {"0:0", 0, 0}, {"6:6", 6, 6}, {"05:6", 5, 6}} {
		var got rangedView
		if code := getJSON(t, ts.URL+"/query/sssp?range="+tc.q, &got); code != http.StatusOK {
			t.Fatalf("range=%s: status %d", tc.q, code)
		}
		if got.Range == nil || *got.Range != [2]int{tc.lo, tc.hi} || got.Data.Src == nil || *got.Data.Src != 0 ||
			!reflect.DeepEqual(got.Data.Dist, append([]int64{}, full.Data.Dist[tc.lo:tc.hi]...)) {
			t.Errorf("range=%s: %+v, want dist %v", tc.q, got, full.Data.Dist[tc.lo:tc.hi])
		}
	}
	var labels rangedView
	getJSON(t, ts.URL+"/query/cc?range=2:5", &labels)
	if !reflect.DeepEqual(labels.Data.Labels, []int64{0, 3, 4}) {
		t.Errorf("cc range=2:5: labels %v, want [0 3 4]", labels.Data.Labels)
	}
	for _, bad := range []string{"", ":", "1", "1:", ":2", "3:1", "0:7", "-1:2", "+1:2", "1:2:3", "a:b", "1:2&range=1:2",
		"1 :2", "0x1:2", "1.0:2", "99999999999999999999:2", "0:99999999999999999999"} {
		resp, err := http.Get(ts.URL + "/query/sssp?range=" + strings.ReplaceAll(url.QueryEscape(bad), "%26range%3D", "&range="))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		value, _, _ := strings.Cut(bad, "&")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], fmt.Sprintf("%q", value)) {
			t.Errorf("range=%s: status %d, error %q; want 400 quoting the value", bad, resp.StatusCode, body["error"])
		}
	}
}

// FuzzQueryRange throws arbitrary ?range= values at the handler: it
// answers 200 or 400, never anything else, and a 200 carries exactly the
// requested slice of the full vector under the range it echoes.
func FuzzQueryRange(f *testing.F) {
	for _, s := range []string{"0:6", "1:3", "3:1", "0:7", "6:6", "", ":", "1:", "-1:2", "+1:2", "1:2:3", "007:6",
		"4294967296:4294967297", "2147483648:2147483648", "99999999999999999999:1", "1:2&range=3:4", "1%3A2", "١:٢", " 1:2", "1:2\x00"} {
		f.Add(s)
	}
	svc := NewService()
	g := graph.New(2*pageSize+3, false)
	for v := 1; v < g.NumNodes(); v += 2 {
		g.InsertEdge(graph.NodeID(v-1), graph.NodeID(v), int64(v))
	}
	if _, err := svc.Host(CC(cc.NewInc(g)), Options{}); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	handler := svc.Handler()
	full := svc.Get("cc").View().Data.(CCView).Labels.Slice()
	f.Fuzz(func(t *testing.T, raw string) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query/cc?range="+url.QueryEscape(raw), nil))
		switch rec.Code {
		case http.StatusBadRequest:
			lo, hi, ok := strings.Cut(raw, ":")
			l, errL := strconv.Atoi(lo)
			h, errH := strconv.Atoi(hi)
			signed := strings.ContainsAny(raw, "+-")
			if ok && errL == nil && errH == nil && !signed && l <= h && h <= len(full) {
				t.Fatalf("range=%q rejected: %s", raw, rec.Body)
			}
		case http.StatusOK:
			var got rangedView
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Range == nil {
				t.Fatalf("range=%q: %v in %s", raw, err, rec.Body)
			}
			lo, hi := got.Range[0], got.Range[1]
			if lo < 0 || lo > hi || hi > len(full) || !reflect.DeepEqual(got.Data.Labels, append([]int64{}, full[lo:hi]...)) {
				t.Fatalf("range=%q answered [%d,%d) with %d labels", raw, lo, hi, len(got.Data.Labels))
			}
			if !sameRange(raw, lo, hi) {
				t.Fatalf("range=%q answered as %d:%d", raw, lo, hi)
			}
		default:
			t.Fatalf("range=%q: status %d", raw, rec.Code)
		}
	})
}

// sameRange reports whether raw spells lo:hi up to leading zeros.
func sameRange(raw string, lo, hi int) bool {
	l, h, ok := strings.Cut(raw, ":")
	ln, errL := strconv.Atoi(l)
	hn, errH := strconv.Atoi(h)
	return ok && errL == nil && errH == nil && ln == lo && hn == hi
}
