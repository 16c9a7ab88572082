package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/resilience"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
)

// Client is the router's HTTP handle on one shard daemon (or replica).
// It speaks the serve.Service API plus the shard-side endpoints mounted
// by MountShardAPI, translating wire shapes back into values the
// exchange layer consumes. The two calls a routed query makes — a View
// per shard, an Eval per frontier — read and write their JSON by hand
// (wire.go); everything else goes through encoding/json (do). A Client
// is safe for concurrent use.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:9001".
	Base string
	// HTTP is the underlying client; nil means a default whose transport
	// bounds each connection phase (dial, TLS handshake, waiting for
	// response headers) while leaving total request latency to the
	// caller's context deadline.
	HTTP *http.Client
}

// defaultShardTransport bounds the phases of a request that can hang on
// a dead or partitioned peer — connecting, TLS, and waiting for the
// first response byte — without imposing a whole-request ceiling. A
// flat client timeout conflates "slow peer" with "large response" and
// fights the deadline-budget plane: total latency belongs to the
// caller's context (propagated across hops via X-Incgraph-Deadline),
// not to the transport.
var defaultShardTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   2 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	TLSHandshakeTimeout:   2 * time.Second,
	ResponseHeaderTimeout: 15 * time.Second,
	IdleConnTimeout:       90 * time.Second,
	MaxIdleConnsPerHost:   16,
}

// defaultShardClient carries the phase-bounded transport and no
// whole-request timeout; callers that want one set a context deadline.
var defaultShardClient = &http.Client{Transport: defaultShardTransport}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultShardClient
}

// StatusError is a non-2xx shard response, preserving the code so the
// router can distinguish shedding (503) from brokenness.
type StatusError struct {
	// Code is the HTTP status the shard returned.
	Code int
	// Body is the (truncated) response body, usually the error text.
	Body string
	// RetryAfter is the server's Retry-After hint, when the response
	// carried a parseable one (503 sheds do); zero otherwise.
	RetryAfter time.Duration
}

// Error renders the status and body.
func (e *StatusError) Error() string { return fmt.Sprintf("status %d: %s", e.Code, e.Body) }

// IsShed reports whether err is a shard telling us to back off (503).
func IsShed(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusServiceUnavailable
}

// RetryAfterHint extracts a server-directed minimum retry delay from a
// shard error: the Retry-After a shed (or any hinted response) carried.
// It is the RetryOptions.RetryAfter plumbing for resilience.Do.
func RetryAfterHint(err error) (time.Duration, bool) {
	se, ok := err.(*StatusError)
	if !ok || se.RetryAfter <= 0 {
		return 0, false
	}
	return se.RetryAfter, true
}

// newStatusError builds a StatusError from a drained non-2xx response,
// capturing the Retry-After hint (delta-seconds form) when present.
func newStatusError(resp *http.Response) *StatusError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// newRequest builds a request carrying the W3C traceparent header when
// ctx holds a trace ID, so a router's fan-out requests join the same
// trace on every shard they touch, and the X-Incgraph-Deadline budget
// header when ctx has a deadline, so the shard spends from the same
// patience the router was given.
func (c *Client) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if tid, ok := trace.IDFromContext(ctx); ok {
		req.Header.Set("traceparent", trace.FormatTraceparent(tid, trace.NewSpanID()))
	}
	resilience.PropagateDeadline(req)
	return req, nil
}

// send runs req and returns its response when the status is 2xx; any
// other status is drained into a StatusError. The caller closes the body.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, newStatusError(resp)
	}
	return resp, nil
}

// fetch runs req and returns a 2xx response's body, read whole through
// the maxEvalBody cap: View and Eval scan their answers by hand (wire.go)
// instead of handing the stream to encoding/json.
func (c *Client) fetch(req *http.Request) ([]byte, error) {
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readBody(resp.Body, resp.ContentLength, maxEvalBody)
}

// do runs req and decodes a 2xx response into out with encoding/json: the
// path of the small and the rare answers (Info, Update's outcome, scrapes,
// replica status), not of a routed query's views and evals.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// call sends a bodiless request for path and decodes the 2xx answer into
// out (see do): the one path of the small control calls below.
func (c *Client) call(ctx context.Context, method, path string, out any) error {
	req, err := c.newRequest(ctx, method, c.Base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// get sends GET path and returns the 2xx response, whose body the caller
// closes; any other status comes back as a StatusError.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := c.newRequest(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.send(req)
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil)
}

// Info fetches the daemon's shard identity.
func (c *Client) Info(ctx context.Context) (Info, error) {
	var info Info
	err := c.call(ctx, http.MethodGet, "/shard/info", &info)
	return info, err
}

// UpdateOutcome is what one shard said about its sub-batch.
type UpdateOutcome struct {
	// Accepted is the number of unit updates the shard accepted.
	Accepted int `json:"accepted"`
	// Applied reports whether the shard confirmed application (wait=1).
	Applied bool `json:"applied"`
	// Epochs maps the shard's algos to their post-request view epochs.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// Update posts a sub-batch to the shard in the binary batch format.
// wait asks the shard to confirm application (and WAL logging, when the
// shard is durable) before responding.
func (c *Client) Update(ctx context.Context, b graph.Batch, wait bool) (UpdateOutcome, error) {
	var out UpdateOutcome
	var buf bytes.Buffer
	if err := graph.WriteBatch(&buf, b); err != nil {
		return out, err
	}
	url := c.Base + "/update"
	if wait {
		url += "?wait=1"
	}
	req, err := c.newRequest(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	err = c.do(req, &out)
	return out, err
}

// ShardView is one shard's published answer vector plus the metadata
// the exchange needs.
type ShardView struct {
	// Epoch is the stream position the vector answers for.
	Epoch uint64
	// Degraded reports a stale view republished after a maintainer
	// panic; the router surfaces it rather than hiding it.
	Degraded bool
	// Src is the SSSP source (sssp views only).
	Src graph.NodeID
	// Values is the dense vector: distances for sssp, labels for cc.
	Values []int64
}

// View fetches the shard's published view for algo ("sssp" or "cc") and
// extracts its value vector. The answer — the one wire form of a view,
// serve.WriteQuery's — is read whole and scanned by hand (scanView): one
// is decoded per shard per routed query, and encoding/json spent more on
// each than the shard spent answering.
func (c *Client) View(ctx context.Context, algo string) (ShardView, error) {
	if algo != "sssp" && algo != "cc" {
		return ShardView{}, fmt.Errorf("shard: no view decoder for algo %q", algo)
	}
	req, err := c.newRequest(ctx, http.MethodGet, c.Base+"/query/"+algo, nil)
	if err != nil {
		return ShardView{}, err
	}
	body, err := c.fetch(req)
	if err != nil {
		return ShardView{}, err
	}
	sv, err := scanView(body, algo)
	if err != nil {
		return ShardView{}, fmt.Errorf("shard: %s view from %s: %w", algo, c.Base, err)
	}
	return sv, nil
}

// Eval sends the shard one exchange frontier (sparse [vertex, value]
// seeds) and returns the sparse pairs its fragment improved. A response
// that does not carry EvalProto is an error: an older shard answers
// with a dense "values" vector this client does not read, and taking
// its empty "improved" for "nothing improved" would silently return
// wrong distances.
//
// Request and answer are written and scanned by hand (wire.go), to the
// bytes encoding/json writes for EvalRequest and reads into EvalResponse.
func (c *Client) Eval(ctx context.Context, algo string, seeds [][2]int64) (EvalResponse, error) {
	body := appendEvalRequest(nil, seeds)
	req, err := c.newRequest(ctx, http.MethodPost, c.Base+"/shard/eval/"+algo, bytes.NewReader(body))
	if err != nil {
		return EvalResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	answer, err := c.fetch(req)
	if err != nil {
		return EvalResponse{}, err
	}
	out, err := scanEvalResponse(answer)
	if err != nil {
		return EvalResponse{}, fmt.Errorf("shard: eval answer from %s: %w", c.Base, err)
	}
	if out.Proto != EvalProto {
		return out, fmt.Errorf("shard: %s speaks eval protocol %d, this router %d (mixed versions?)", c.Base, out.Proto, EvalProto)
	}
	return out, nil
}

// MetricsSnapshot fetches the member's /metrics.json registry dump —
// the federation source, with raw histogram buckets intact.
func (c *Client) MetricsSnapshot(ctx context.Context) ([]obs.FamilySnapshot, error) {
	var fams []obs.FamilySnapshot
	err := c.call(ctx, http.MethodGet, "/metrics.json", &fams)
	return fams, err
}

// Offenders fetches the member's /debug/offenders dump: per-algo top-K
// worst-boundedness applies, the per-process source of the router's
// cluster offender merge.
func (c *Client) Offenders(ctx context.Context) (map[string][]serve.Offender, error) {
	var offs map[string][]serve.Offender
	err := c.call(ctx, http.MethodGet, "/debug/offenders", &offs)
	return offs, err
}

// TraceDump fetches the member's raw /debug/trace document for merging
// into a cluster timeline. n limits the dump to the newest n events
// (math.MaxInt: everything the member retained).
func (c *Client) TraceDump(ctx context.Context, n int) ([]byte, error) {
	resp, err := c.get(ctx, fmt.Sprintf("/debug/trace?n=%d", n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ReplicaStatus fetches a replica's /replica/status lag document.
func (c *Client) ReplicaStatus(ctx context.Context) (FollowerStatus, error) {
	var st FollowerStatus
	err := c.call(ctx, http.MethodGet, "/replica/status", &st)
	return st, err
}

// Promote asks a warm replica to seal its follower loop and begin
// serving as the shard primary. The response reports the promoted
// epoch per algo.
func (c *Client) Promote(ctx context.Context) (map[string]uint64, error) {
	var out struct {
		Epochs map[string]uint64 `json:"epochs"`
	}
	err := c.call(ctx, http.MethodPost, "/replica/promote", &out)
	return out.Epochs, err
}
