//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The load is a closed loop from this one process over two connections:
// a writer that sends the next POST /update?wait=1 only after the previous
// one was acknowledged as visible, and a reader that cycles GET
// /query/{algo} over every hosted class until the writer stops. A slow
// system therefore receives less load, never a growing queue.

// newConn returns a client that holds exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// opSpans is the traced run's hook into the loop: begin is called before
// an op is sent and its return value after the reply was read. The
// end-to-end run passes nil.
type opSpans interface {
	beginOp(kind string, id int64) (end func())
}

// sample is one completed op: when the reply had been read and how long
// the op took.
type sample struct {
	done time.Time
	ms   float64
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// loadResult is what one measured phase observed from the client side.
type loadResult struct {
	updates, queries  []sample
	attempted, failed int
	firstErr          error
}

// loadOptions bound one phase: it ends at the deadline or after maxOps
// update ops, whichever comes first (maxOps 0 = deadline only).
type loadOptions struct {
	base    string
	algos   []string
	perPost int
	seconds float64
	maxOps  int
	// readEvery > 0 replaces the concurrent reader by turn-taking on the
	// writer's connection: one query op after every readEvery update ops
	// (see workload.readEvery for why cluster needs it).
	readEvery int
	// readPace is the concurrent reader's think time: it starts a query op
	// this long after it started the previous one, or at once if that one
	// took longer (see workload.readPace).
	readPace time.Duration
	spans    opSpans
	// fixedBody, when set, is what every POST sends instead of the stream's
	// next batch: the reference server's load, which must not advance the
	// mirror.
	fixedBody []byte
	// writer and reader are the two keep-alive connections; nil makes the
	// phase open (and close) its own. A run of many short phases passes
	// them in, so that no phase starts with a TCP handshake.
	writer, reader *http.Client
}

// runLoad drives the closed loop against base and returns the client-side
// samples. The stream's mirror advances with every POST generated, so a
// failed POST leaves it ahead of the system and the oracle reports it.
func runLoad(ctx context.Context, st *stream, o loadOptions) loadResult {
	var (
		res      loadResult
		mu       sync.Mutex // guards res.failed/firstErr across the two loops
		stop     atomic.Bool
		queries  []sample
		qAttempt int
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	begin := func(kind string, id int64) func() {
		if o.spans == nil {
			return func() {}
		}
		return o.spans.beginOp(kind, id)
	}

	query := func(conn *http.Client, id int64) {
		qAttempt++
		end := begin("query", id)
		t0 := time.Now()
		err := queryCycle(ctx, conn, o.base, o.algos)
		done := time.Now()
		end()
		switch {
		case err == nil:
			queries = append(queries, sample{done, float64(done.Sub(t0)) / 1e6})
		case ctx.Err() != nil:
			qAttempt-- // cut off by cancellation, not a failure
		default:
			fail(err)
		}
	}
	if o.readEvery == 0 {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			for id := int64(0); !stop.Load() && ctx.Err() == nil; id++ {
				next := time.Now().Add(o.readPace)
				query(conn, id)
				for !stop.Load() && time.Now().Before(next) {
					time.Sleep(min(time.Until(next), time.Millisecond)) // short naps: the writer's end must not wait a whole pace
				}
			}
		}()
	}

	conn := o.writer
	if conn == nil {
		conn = newConn()
		defer conn.CloseIdleConnections()
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for id := int64(0); ctx.Err() == nil && time.Now().Before(deadline) && (o.maxOps == 0 || int(id) < o.maxOps); id++ {
		body := o.fixedBody
		if body == nil {
			body = encodeBatch(st.next(o.perPost)) // generated between ops: client think time, not latency
		}
		res.attempted++
		end := begin("update", id)
		t0 := time.Now()
		err := postUpdate(ctx, conn, o.base, body)
		done := time.Now()
		end()
		if err != nil {
			fail(err)
			continue
		}
		res.updates = append(res.updates, sample{done, float64(done.Sub(t0)) / 1e6})
		if o.readEvery > 0 && (id+1)%int64(o.readEvery) == 0 {
			query(conn, id/int64(o.readEvery))
		}
	}
	stop.Store(true)
	wg.Wait()
	res.queries = queries
	res.attempted += qAttempt
	return res
}

func postUpdate(ctx context.Context, conn *http.Client, base string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/update?wait=1", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := conn.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /update: status %d", resp.StatusCode)
	}
	return nil
}

// queryCycle is one query op: a GET of every hosted class's view, bodies
// read to the end.
func queryCycle(ctx context.Context, conn *http.Client, base string, algos []string) error {
	for _, a := range algos {
		if _, err := getBody(ctx, conn, base+"/query/"+a, io.Discard); err != nil {
			return err
		}
	}
	return nil
}

// getBody GETs url into w and returns the byte count; a non-2xx status is
// an error.
func getBody(ctx context.Context, conn *http.Client, url string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := conn.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, err
	}
	if resp.StatusCode/100 != 2 {
		return n, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return n, nil
}
