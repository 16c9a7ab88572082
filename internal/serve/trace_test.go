package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"incgraph/internal/trace"
)

// traceDump is the decoded subset of a /debug/trace dump the tests
// inspect.
type traceDump struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func getTrace(t *testing.T, base string) traceDump {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(body) {
		t.Fatalf("/debug/trace is not valid JSON: %.200s", body)
	}
	var dump traceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestUpdateTraceEndToEnd(t *testing.T) {
	// One traced update, end to end: the traceparent header's trace ID
	// must come back in the response, be stamped on the batch and engine
	// spans in the flight recording, and the recording must carry the
	// h-phase and resume spans plus per-round events of the applied batch.
	_, ts := newTestService(t)
	const tidHex = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", ts.URL+"/update?wait=1",
		strings.NewReader("+ 2 3 1\n+ 3 4 1\n+ 4 5 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+tidHex+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update status %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, tidHex) {
		t.Errorf("response traceparent %q does not carry trace ID %s", tp, tidHex)
	}
	var res UpdateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.TraceID != tidHex {
		t.Errorf("UpdateResult.TraceID = %q, want %q", res.TraceID, tidHex)
	}

	dump := getTrace(t, ts.URL)
	seen := map[string]int{}
	traced := map[string]bool{}
	for _, ev := range dump.TraceEvents {
		seen[ev.Name]++
		if ev.Args["traceparent_id"] == tidHex {
			traced[ev.Name] = true
		}
	}
	for _, name := range []string{"batch", "coalesce", "apply", "publish", "h", "resume", "round", "inc_run"} {
		if seen[name] == 0 {
			t.Errorf("no %q events in /debug/trace; saw %v", name, seen)
		}
	}
	// The trace ID must reach both the serving-layer root span and the
	// engine phases inside the apply.
	for _, name := range []string{"batch", "apply", "h", "resume"} {
		if !traced[name] {
			t.Errorf("%q span not stamped with the request trace ID", name)
		}
	}

	// The flight recording must round-trip through the exporter as a
	// loadable document: metadata first, then events.
	if dump.TraceEvents[0].Name != "process_name" {
		t.Errorf("first event %q, want process_name metadata", dump.TraceEvents[0].Name)
	}
}

func TestUpdateWithoutTraceparentMintsID(t *testing.T) {
	_, ts := newTestService(t)
	resp, err := http.Post(ts.URL+"/update?wait=1", "text/plain", strings.NewReader("+ 3 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res UpdateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.TraceID) != 32 || res.TraceID == strings.Repeat("0", 32) {
		t.Errorf("minted trace ID %q, want 32 hex chars non-zero", res.TraceID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, res.TraceID) {
		t.Errorf("response traceparent %q does not carry minted ID %s", tp, res.TraceID)
	}
}

func TestStatsQuantiles(t *testing.T) {
	_, ts := newTestService(t)
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/update?wait=1", "text/plain",
			strings.NewReader(fmt.Sprintf("+ %d %d 1\n", i%5, i%5+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var stats map[string]Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats status %d", code)
	}
	for _, algo := range []string{"cc", "sssp"} {
		s := stats[algo]
		if s.ApplyP50Nanos <= 0 || s.ApplyP95Nanos <= 0 || s.ApplyP99Nanos <= 0 {
			t.Errorf("%s quantiles %d/%d/%d, want all > 0", algo,
				s.ApplyP50Nanos, s.ApplyP95Nanos, s.ApplyP99Nanos)
		}
		if s.ApplyP50Nanos > s.ApplyP99Nanos {
			t.Errorf("%s p50 %d > p99 %d", algo, s.ApplyP50Nanos, s.ApplyP99Nanos)
		}
	}
}

func TestDebugTraceWhileApplying(t *testing.T) {
	// Exercised under -race in CI: concurrent dumps of the flight
	// recording while applies are in flight must be safe and always
	// produce valid JSON.
	_, ts := newTestService(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/update?wait=1", "text/plain",
					strings.NewReader(fmt.Sprintf("+ %d %d 1\n", (w+i)%5, (w+i)%5+1)))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				getTrace(t, ts.URL)
			}
		}()
	}
	wg.Wait()
	if dump := getTrace(t, ts.URL); len(dump.TraceEvents) == 0 {
		t.Error("empty flight recording after concurrent applies")
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The middleware must have resolved the incoming traceparent into
		// the request context before the handler runs.
		if _, ok := trace.IDFromContext(r.Context()); !ok {
			t.Error("no trace ID in request context")
		}
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(AccessLog(logger, inner))
	defer ts.Close()

	const tidHex = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/query/cc", nil)
	req.Header.Set("traceparent", "00-"+tidHex+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	line := buf.String()
	mu.Unlock()
	for _, want := range []string{"method=GET", "path=/query/cc", "status=418", "trace=" + tidHex, "duration="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line %q missing %q", line, want)
		}
	}
}

// lockedWriter serializes concurrent handler writes into the shared test
// buffer.
type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
