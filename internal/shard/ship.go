package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"incgraph/internal/serve"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// This file is the replication half of sharded serving: log shipping.
// A primary shard daemon exposes its WAL through (*wal.Log).StreamHandler
// (mounted under /wal/); a warm replica runs a Follower, which pulls
// segment bytes and checkpoints into its own data directory and submits
// every newly complete record to the serve.Service the replica's
// maintainers are hosted on from start-up. Promotion is then cheap: stop the
// follower loop and open the shipped log for writing — the hosts already
// stand at the stream position they replayed to. Replication is
// asynchronous — updates acked by the primary but not yet shipped are
// lost on promotion, and the epoch vector is what makes that loss visible
// instead of silent.

// ShipProgress describes one PullWAL cycle: what was fetched and how far
// the local mirror still trails the primary's listing. The lag fields
// are measured after the pull, so a fully caught-up replica reports
// zero for both.
type ShipProgress struct {
	// Shipped counts segment bytes fetched by this cycle.
	Shipped int64
	// RemoteBytes is the total segment size the primary listed.
	RemoteBytes int64
	// LagBytes is how many listed bytes are still missing locally.
	LagBytes int64
	// LagSegments counts listed segments not yet fully mirrored.
	LagSegments int
}

// PullWAL mirrors the primary's WAL directory into dir: the newest
// checkpoint (if any, fetched once) and every listed segment's missing
// byte range. src is the primary's base URL; the stream endpoints are
// expected under src+"/wal". It reports what it fetched and how far the
// mirror still trails — the replication-lag measurement a follower turns
// into gauges. Safe to call repeatedly; each call ships only what is new.
func PullWAL(ctx context.Context, hc *http.Client, src, dir string) (ShipProgress, error) {
	var p ShipProgress
	c := &Client{Base: src + "/wal", HTTP: hc}
	var lst wal.StreamListing
	if err := c.call(ctx, http.MethodGet, "/segments", &lst); err != nil {
		return p, fmt.Errorf("shard: list segments: %w", err)
	}
	if lst.CheckpointSeq > 0 {
		name := wal.CheckpointName(lst.CheckpointSeq)
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			if err := fetchToFile(ctx, c, "/checkpoint", filepath.Join(dir, name)); err != nil {
				return p, fmt.Errorf("shard: fetch checkpoint: %w", err)
			}
		}
	}
	var pullErr error
	for _, seg := range lst.Segments {
		p.RemoteBytes += seg.Size
		if pullErr == nil {
			n, err := pullSegment(ctx, c, dir, seg)
			p.Shipped += n
			pullErr = err
		}
		var local int64
		if fi, err := os.Stat(filepath.Join(dir, wal.SegmentName(seg.Seq))); err == nil {
			local = fi.Size()
		}
		if local < seg.Size {
			p.LagBytes += seg.Size - local
			p.LagSegments++
		}
	}
	return p, pullErr
}

// pullSegment ships the missing suffix of one segment, chunk by chunk,
// up to the size the listing reported (later bytes arrive next cycle). An
// empty segment is mirrored too: right after a rotation it is the one the
// newest checkpoint replays from, which a recovery must find, and the one
// a promoted replica appends to.
func pullSegment(ctx context.Context, c *Client, dir string, seg wal.SegmentInfo) (int64, error) {
	path := filepath.Join(dir, wal.SegmentName(seg.Seq))
	var local int64
	if fi, err := os.Stat(path); err == nil {
		local = fi.Size()
	} else if seg.Size == 0 {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		return 0, f.Close()
	}
	var shipped int64
	for local < seg.Size {
		n, err := appendToFile(ctx, c, fmt.Sprintf("/segment/%d?off=%d", seg.Seq, local), path)
		shipped += n
		if err != nil {
			return shipped, fmt.Errorf("shard: ship %s: %w", wal.SegmentName(seg.Seq), err)
		}
		if n == 0 {
			break // primary pruned or truncated the listing raced; retry next cycle
		}
		local += n
	}
	return shipped, nil
}

// fetchToFile downloads c's route into path atomically (tmp + rename), so
// a crashed fetch never leaves a torn checkpoint with a valid name.
func fetchToFile(ctx context.Context, c *Client, route, path string) error {
	resp, err := c.get(ctx, route)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ship-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendToFile streams the body of c's route onto the end of path,
// returning the byte count. Segments are append-only on both sides, so
// plain O_APPEND is exact.
func appendToFile(ctx context.Context, c *Client, route, path string) (int64, error) {
	resp, err := c.get(ctx, route)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// FollowerOptions configure a warm replica's ship-and-replay loop.
type FollowerOptions struct {
	// Source is the primary's base URL (WAL endpoints under /wal).
	Source string
	// Dir is the local data directory the WAL is shipped into — the
	// directory the replica will serve durably from after promotion.
	Dir string
	// Service hosts the replica's maintainers, each at the stream position
	// its checkpoint recorded. Every replayed record is submitted to it
	// once; the follower must be its only submitter until promotion.
	// The lag gauges land in the service's registry and the replay spans
	// in its flight recorder.
	Service *serve.Service
	// ReplayFrom is the first WAL segment to tail (a recovered
	// checkpoint's ReplayFrom; 0 tails from the oldest shipped segment).
	ReplayFrom uint64
	// Logf receives follower progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// followInterval is the follower's poll cadence: replication lag is
// bounded by it plus transfer time.
const followInterval = 100 * time.Millisecond

// Follower runs continuous log shipping for one replica: pull new WAL
// bytes from the primary, submit newly complete records to its service,
// repeat. It submits one record at a time and waits until every host has
// published it, so a record is one applied batch on every host and the
// hosts' published epochs are the replica's stream position. The service's
// apply loop does the applying: coalescing, panic isolation, accounting
// and spans are the ones a primary has.
type Follower struct {
	opt   FollowerOptions
	tail  *wal.Tail
	track int32 // replication track on the service's flight recorder

	// pullFails/skipTicks implement deterministic pull backoff: after k
	// consecutive pull errors the follower skips min(2^k,16)-1 ticks
	// before contacting the primary again, so a dead primary is probed at
	// a trickle instead of every interval. Local replay still runs every
	// tick — shipped bytes keep draining regardless.
	pullFails int
	skipTicks int

	mu         sync.Mutex
	shipped    int64
	records    uint64
	lastErr    error
	lagSegs    int
	lagBytes   int64
	lastRecNs  int64 // Nanos of the newest replayed record (0 = none seen)
	behindSecs float64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFollower builds a follower; call Run (usually in a goroutine) to
// start shipping.
func NewFollower(opt FollowerOptions) *Follower {
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	f := &Follower{
		opt:   opt,
		tail:  wal.NewTail(opt.Dir, opt.ReplayFrom),
		track: opt.Service.Recorder().Track("replication"),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	reg := opt.Service.Registry()
	reg.GaugeFunc("incgraph_replica_lag_segments",
		"WAL segments listed by the primary but not fully mirrored.",
		func() float64 { return float64(f.Status().LagSegments) })
	reg.GaugeFunc("incgraph_replica_lag_bytes",
		"WAL bytes listed by the primary but not yet shipped.",
		func() float64 { return float64(f.Status().LagBytes) })
	reg.GaugeFunc("incgraph_replica_lag_seconds",
		"Seconds behind the primary: age of the newest replayed record while lagging, 0 when caught up.",
		func() float64 { return f.Status().LagSeconds })
	reg.GaugeFunc("incgraph_replica_shipped_bytes",
		"Segment bytes fetched from the primary since the follower started.",
		func() float64 { return float64(f.Status().ShippedBytes) })
	reg.GaugeFunc("incgraph_replica_records",
		"WAL records replayed into the replica's maintainers.",
		func() float64 { return float64(f.Status().Records) })
	return f
}

// Run ships and replays until Stop. It returns after the final
// drain: one last replay pass over whatever bytes made it to disk, so a
// promotion sees every shipped record applied.
func (f *Follower) Run() {
	f.startOnce.Do(func() {
		defer close(f.done)
		tick := time.NewTicker(followInterval)
		defer tick.Stop()
		for {
			f.cycle()
			select {
			case <-f.stop:
				// Final drain: the primary may be gone (that is why we
				// are stopping), but locally shipped bytes must all be
				// applied before the replica can serve.
				f.replayLocal()
				return
			case <-tick.C:
			}
		}
	})
}

// cycle is one pull+replay round. Consecutive pull failures back the
// pull off exponentially (skip 1, 3, 7, … up to 15 ticks between
// probes); replay always runs so already-shipped bytes drain even while
// the primary is unreachable.
func (f *Follower) cycle() {
	if f.skipTicks > 0 {
		f.skipTicks--
		f.replayLocal()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := PullWAL(ctx, nil, f.opt.Source, f.opt.Dir)
	if err != nil {
		f.pullFails++
		f.skipTicks = min(1<<f.pullFails, 16) - 1
	} else {
		f.pullFails, f.skipTicks = 0, 0
	}
	f.mu.Lock()
	f.shipped += p.Shipped
	f.lagSegs = p.LagSegments
	f.lagBytes = p.LagBytes
	f.lastErr = err
	f.mu.Unlock()
	if err != nil {
		f.opt.Logf("follower: pull from %s: %v (next probe in %d ticks)", f.opt.Source, err, f.skipTicks+1)
	}
	f.replayLocal()
}

// replayLocal advances the tail over shipped bytes, submitting each
// record once under the trace ID it was logged with, as POST /update
// does, and waiting until every host has published it. A record targeted
// at one class is refused, naming it, and reaches no host.
func (f *Follower) replayLocal() {
	emitted, err := f.tail.Advance(func(rec wal.Record) error {
		if err := rec.CheckBroadcast(); err != nil {
			return err
		}
		span := f.opt.Service.Recorder().Begin("replay", "ship", f.track)
		span.SetTrace(trace.TraceID(rec.Trace))
		span.Arg("updates", int64(len(rec.Batch)))
		if rec.Nanos > 0 {
			span.Arg("record_age_ns", time.Now().UnixNano()-rec.Nanos)
		}
		defer span.End()
		ack, err := f.opt.Service.Submit(rec.Batch, trace.TraceID(rec.Trace))
		if err != nil {
			return err
		}
		<-ack
		if rec.Nanos > 0 {
			f.mu.Lock()
			f.lastRecNs = rec.Nanos
			f.mu.Unlock()
		}
		return nil
	})
	f.mu.Lock()
	f.records += uint64(emitted)
	if err != nil {
		f.lastErr = err
	}
	// Seconds-behind: while bytes are still missing, the replica is at
	// best as fresh as the newest record it replayed; once the mirror is
	// byte-complete and drained, it is caught up (0), regardless of how
	// old the last record is on an idle primary.
	f.behindSecs = 0
	if f.lagBytes > 0 && f.lastRecNs > 0 {
		f.behindSecs = max(0, time.Duration(time.Now().UnixNano()-f.lastRecNs).Seconds())
	}
	f.mu.Unlock()
	if err != nil {
		f.opt.Logf("follower: replay: %v", err)
	}
	if emitted > 0 {
		f.opt.Logf("follower: replayed %d records (epochs %v)", emitted, f.Epochs())
	}
}

// Stop halts the loop and blocks until the final local drain finished:
// after it returns every shipped record is applied and published, and the
// follower submits nothing more.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Epochs returns the per-algo stream positions the replica has applied
// up to: the epochs of its hosts' published views.
func (f *Follower) Epochs() map[string]uint64 { return f.opt.Service.Epochs() }

// Status reports the follower's replication progress.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{
		Source:       f.opt.Source,
		ShippedBytes: f.shipped,
		Records:      f.records,
		LagSegments:  f.lagSegs,
		LagBytes:     f.lagBytes,
		LagSeconds:   f.behindSecs,
		Epochs:       f.Epochs(),
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// FollowerStatus is the JSON shape of a replica's /replica/status.
type FollowerStatus struct {
	// Source is the primary being followed.
	Source string `json:"source"`
	// ShippedBytes counts segment bytes fetched since start.
	ShippedBytes int64 `json:"shipped_bytes"`
	// Records counts WAL records replayed (lifetime of the tail).
	Records uint64 `json:"records"`
	// LagSegments counts primary segments not yet fully mirrored, as of
	// the last pull cycle.
	LagSegments int `json:"lag_segments"`
	// LagBytes counts primary WAL bytes not yet shipped.
	LagBytes int64 `json:"lag_bytes"`
	// LagSeconds is the seconds-behind-primary estimate: the age of the
	// newest replayed record while bytes are still missing, 0 once the
	// mirror is byte-complete and drained.
	LagSeconds float64 `json:"lag_seconds"`
	// Epochs are the per-algo stream positions applied so far.
	Epochs map[string]uint64 `json:"epochs"`
	// LastError is the most recent pull/replay error, "" when healthy.
	LastError string `json:"last_error,omitempty"`
}
