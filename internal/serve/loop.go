package serve

import (
	"errors"
	"slices"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/trace"
)

// ErrClosed is returned by Submit, WithState and Service.Host after Close.
var ErrClosed = errors.New("serve: service closed")

// errNoHosts refuses a Submit to a service no host has joined yet.
var errNoHosts = errors.New("serve: no hosted maintainers")

type submission struct {
	b   graph.Batch
	ack chan struct{}
	at  time.Time     // enqueue time, for the queue-wait histogram
	tid trace.TraceID // request trace ID, propagated into the apply's spans
	// fn, when non-nil, is a state job instead of a batch: the loop
	// flushes everything pending, runs fn (with exclusive maintainer
	// access), and closes ack. This is how checkpoints serialize state at
	// a consistent cut without breaking the single-writer contract.
	fn func()
}

// Submit validates b and enqueues it once for the apply loop, which
// applies it to every host; a refused batch reaches none. It returns once
// the batch is accepted (not yet applied) and blocks while the queue is
// full — backpressure, not loss. The returned channel closes once every
// host has published the batch's view. tid, the request's trace ID (zero
// for none), is carried through the queue into the apply that incorporates
// the batch, stamped on its spans, its ApplyTrace entries and the OnApply
// hooks — the handle for following one request through the flight
// recording.
func (s *Service) Submit(b graph.Batch, tid trace.TraceID) (<-chan struct{}, error) {
	return s.submit(b, tid, func() error { return nil })
}

// submit is Submit with log run after the checks, before the enqueue, under
// the lock Close takes: a batch is refused unlogged or logged and accepted.
func (s *Service) submit(b graph.Batch, tid trace.TraceID, log func() error) (<-chan struct{}, error) {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.in == nil:
		return nil, errNoHosts
	}
	if err := b.Validate(s.hosts[0].n); err != nil {
		return nil, err
	}
	if err := log(); err != nil {
		return nil, err
	}
	// Copy: the caller may reuse its slice after Submit returns.
	owned := append(graph.Batch(nil), b...)
	ack := make(chan struct{})
	s.started.Store(true)
	s.stream.received(len(owned))
	s.in <- submission{b: owned, ack: ack, at: time.Now(), tid: tid}
	return ack, nil
}

// Saturated reports whether the submission queue is full: a Submit now
// would block on backpressure. The serving layer probes it to shed load
// with 503 instead of stalling ingest — advisory, since the queue may
// drain (or fill) between the probe and the submit.
func (s *Service) Saturated() bool {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	return s.in != nil && len(s.in) >= cap(s.in)
}

// WithState runs fn against the maintainer from inside the service's
// apply loop, after every previously accepted submission has been applied.
// It blocks until fn returns (or the service is closed) and returns fn's
// error.
func (h *Host) WithState(fn func(m Serveable) error) error {
	return h.svc.withState(func() error { return fn(h.m) })
}

// withState runs fn from inside the apply loop, after every previously
// accepted submission has been applied, with every maintainer to itself —
// the mechanism a checkpoint takes its cut by. It blocks until fn returns
// (or the service is closed) and returns fn's error.
func (s *Service) withState(fn func() error) error {
	var err error
	job := submission{at: time.Now(), ack: make(chan struct{}), fn: func() { err = fn() }}
	s.submitMu.RLock()
	switch {
	case s.closed:
		s.submitMu.RUnlock()
		return ErrClosed
	case s.in == nil:
		s.submitMu.RUnlock()
		return errNoHosts
	}
	s.in <- job
	s.submitMu.RUnlock()
	<-job.ack
	return err
}

// Close stops accepting submissions and hosts, drains and applies
// everything already accepted, publishes the final views, and waits for
// the apply loop to exit. It is idempotent. Shut the HTTP server down first.
func (s *Service) Close() {
	s.submitMu.Lock()
	already, running := s.closed, s.in != nil
	s.closed = true
	s.submitMu.Unlock()
	if !already && running {
		close(s.quit)
	}
	if running {
		<-s.done
	}
}

// flushReason says why the apply loop stopped accumulating a batch; it
// labels incgraph_apply_flushes_total and ApplyTrace.FlushReason.
type flushReason int

const (
	flushDrain flushReason = iota // the submission queue was empty
	flushFull                     // MaxBatch reached
	flushTimer                    // MaxWait ran out while submissions kept arriving
	flushState                    // a WithState job needs every earlier submission applied
	flushClose                    // shutdown drain
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"drain", "full", "timer", "state", "close"}

// loop is the single writer: the only goroutine that touches a maintainer
// once its host has joined the service. Its batching policy is group
// commit: a batch is whatever queued up while the previous apply ran,
// applied the moment the queue is empty (or MaxBatch is reached).
// Coalescing therefore happens exactly when submissions outpace applies,
// and an idle service adds no wait to a submission; MaxWait only bounds
// how long a queue that never empties can keep a batch open.
func (s *Service) loop(opt Options, directed bool) {
	defer close(s.done)
	var (
		pending graph.Batch
		acks    []chan struct{}
		oldest  time.Time     // enqueue time of pending's first submission
		pendTID trace.TraceID // first traced submission merged into pending
		timer   *time.Timer
		timerC  <-chan time.Time
	)
	flush := func(why flushReason) {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
		if len(pending) > 0 {
			s.apply(pending, directed, oldest, pendTID, why)
			pending = nil
			pendTID = trace.TraceID{}
		}
		for _, a := range acks {
			close(a)
		}
		acks = nil
	}
	add := func(sub submission) {
		if sub.fn != nil {
			// State job: flush so the maintainers reflect every earlier
			// submission (channel order), then hand it the loop's turn.
			flush(flushState)
			sub.fn()
			close(sub.ack)
			return
		}
		if len(pending) == 0 {
			oldest = sub.at
		}
		pending = append(pending, sub.b...)
		if pendTID.IsZero() {
			pendTID = sub.tid
		}
		acks = append(acks, sub.ack)
	}
	for {
		select {
		case sub := <-s.in:
			add(sub)
			switch {
			case len(pending) >= opt.MaxBatch:
				flush(flushFull)
			case len(s.in) == 0:
				flush(flushDrain)
			case timer == nil && len(pending) > 0:
				// More is queued: keep absorbing, for MaxWait at most.
				timer = time.NewTimer(opt.MaxWait)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			flush(flushTimer)
		case <-s.quit:
			// Graceful shutdown: drain whatever Submit managed to
			// enqueue before Close flipped the flag, then exit.
			for {
				select {
				case sub := <-s.in:
					add(sub)
					if len(pending) >= opt.MaxBatch {
						flush(flushFull)
					}
				default:
					flush(flushClose)
					return
				}
			}
		}
	}
}

// apply nets one accumulated batch once, in a "coalesce" span on the
// loop's own track, moves the stream past it, stages it (each graph of the
// hosts advanced by it once), in a "stage" span beside it, and has every
// host repair in name order; each stamps its view with the stream's new
// position. The graph's Flat view is observed once, after the last host.
// Called only from loop.
func (s *Service) apply(raw graph.Batch, directed bool, oldest time.Time, tid trace.TraceID, why flushReason) {
	span := s.rec.Begin("coalesce", "serve", s.track)
	span.SetTrace(tid)
	net := raw.Net(directed)
	span.Arg("raw", int64(len(raw)))
	span.Arg("net", int64(len(net)))
	span.End()
	s.stream.applied(len(raw), len(net), why)
	s.mu.RLock()
	hosts := s.hosts
	s.mu.RUnlock()
	span = s.rec.Begin("stage", "serve", s.track)
	span.SetTrace(tid)
	s.stagePanics.Add(float64(stage(hosts, func(h *Host) *graph.Graph { return h.m.Graph() }, net, s.rec, s.track)))
	span.End()
	for _, h := range hosts {
		h.apply(raw, net, oldest, tid, why)
	}
	if f := hosts[0].m.Graph().Staged(); f != nil {
		c := f.Compactions()
		s.flatCompactions.Add(float64(c - s.flatSeen))
		s.flatSeen = c
		s.flatOverlay.Set(f.OverlayRatio())
	}
}

// stage takes net as the next round of each distinct graph of the classes
// cs (graph.Graph.Advance): the round's one write, which the apply loop
// and a recovery's replay both make here. A panic in a stage is the
// store's, not a class's: it is counted, recorded on rec's track (if rec
// is not nil), and the Flat it tore is laid out again from the rows
// (graph.Graph.Flat), so every class then repairs the round as usual.
func stage[C any](cs []C, graphOf func(C) *graph.Graph, net graph.Batch, rec *trace.Recorder, track int32) (panics int) {
	for i, c := range cs {
		g := graphOf(c)
		if slices.ContainsFunc(cs[:i], func(o C) bool { return graphOf(o) == g }) {
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					panics++
					if rec != nil {
						panicEvent(rec, track, p)
					}
					g.Flat()
				}
			}()
			g.Advance(net)
		}()
	}
	return panics
}

// streamAccount is a service's one account of its update stream, which
// every host consumes whole. submit and the loop are its writers, each
// once per submission or batch.
type streamAccount struct {
	mu sync.Mutex
	at streamPos

	mRecv, mApplied, mCoalesced, mBatches *obs.Counter
	batchSize, coalesceRatio              *obs.Histogram
	flushes                               [numFlushReasons]*obs.Counter
}

// streamPos is where a stream stands. recv, epoch and batches continue
// across restarts from the first host's BaseEpoch/BaseBatches; base and
// coalesced are this process's.
type streamPos struct {
	recv      uint64 // raw updates accepted
	epoch     uint64 // raw updates applied: every host's view reaches it
	batches   uint64 // batches applied
	base      uint64 // epoch when this process started
	coalesced uint64 // updates this process's nets cancelled
}

// newStreamAccount registers the stream's series on r: one each, with no
// algo label, since every class consumes the one stream.
func newStreamAccount(r *obs.Registry) *streamAccount {
	a := &streamAccount{
		mRecv:         r.Counter("incgraph_updates_received_total", "Raw unit updates accepted by Submit."),
		mApplied:      r.Counter("incgraph_updates_applied_total", "Raw unit updates the apply loop applied to every host."),
		mCoalesced:    r.Counter("incgraph_updates_coalesced_total", "Updates cancelled by batch coalescing before reaching the maintainers."),
		mBatches:      r.Counter("incgraph_batches_applied_total", "Batches the apply loop applied to every host."),
		batchSize:     r.Histogram("incgraph_batch_size_updates", "Raw unit updates merged into one batch."),
		coalesceRatio: r.Histogram("incgraph_coalesce_ratio", "Fraction of each batch cancelled by coalescing (raw-net)/raw."),
	}
	for why, name := range flushReasonNames {
		a.flushes[why] = r.Counter("incgraph_apply_flushes_total", "Batches the apply loop closed, by what closed them: drain (queue empty), full (MaxBatch), timer (MaxWait), state (WithState job), close.", obs.L("reason", name))
	}
	r.GaugeFunc("incgraph_queue_depth", "Received-but-not-yet-applied unit updates.",
		func() float64 { p := a.pos(); return float64(p.recv - p.epoch) })
	return a
}

// seed starts the stream at a recovered position. Called by the first
// host, before any submission.
func (a *streamAccount) seed(epoch, batches uint64) {
	a.mu.Lock()
	a.at = streamPos{recv: epoch, epoch: epoch, batches: batches, base: epoch}
	a.mu.Unlock()
}

// received counts n raw updates accepted by submit.
func (a *streamAccount) received(n int) {
	a.mu.Lock()
	a.at.recv += uint64(n)
	a.mu.Unlock()
	a.mRecv.Add(float64(n))
}

// applied moves the stream past a batch of raw updates netted to net.
func (a *streamAccount) applied(raw, net int, why flushReason) {
	a.mu.Lock()
	a.at.epoch += uint64(raw)
	a.at.batches++
	a.at.coalesced += uint64(raw - net)
	a.mu.Unlock()
	a.mApplied.Add(float64(raw))
	a.mCoalesced.Add(float64(raw - net))
	a.mBatches.Inc()
	a.flushes[why].Inc()
	a.batchSize.Observe(float64(raw))
	a.coalesceRatio.Observe(float64(raw-net) / float64(raw))
}

// pos returns where the stream stands.
func (a *streamAccount) pos() streamPos {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.at
}
