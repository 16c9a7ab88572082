// Package serve hosts incremental maintainers behind a concurrent
// service API: a resident process ingests a stream of update batches ΔG
// while answering queries continuously, which is the setting where the
// paper's incrementalization pays off — the batch fixpoint cost is paid
// once at startup, and every subsequent change is absorbed by Apply.
//
// The concurrency contract is built on the fact that maintainers
// (sssp.Inc, cc.Inc, …) are single-writer objects: a Service's one
// apply-loop goroutine is the only caller of its maintainers' Apply and
// Snapshot. Readers never touch a maintainer; they read an immutable
// snapshot view published after each applied batch.
//
// The loop coalesces and batches the update stream by group commit: it
// takes everything that queued up while the previous apply ran (up to a
// size budget) as one batch and applies it as soon as the queue is empty,
// so an idle service adds no latency and a busy one merges exactly as much
// as arrived. The batch is reduced once with Batch.Net, so churn
// (insert/delete pairs of the same edge, duplicate operations) cancels out
// before any repair machinery, and applied to every host in name order.
// This amortizes the per-batch fixed costs (scope construction,
// priority-queue setup) that dominate when updates arrive one at a time.
package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/trace"
)

// Serveable adapts an incremental maintainer to the service layer. The
// service guarantees Apply and Snapshot are only ever called from its
// single apply-loop goroutine, matching the maintainers' one-writer
// contract; Algo and Graph must be safe to call once at registration.
type Serveable interface {
	// Algo names the hosted query class ("sssp", "cc", …); it is the
	// routing key of the HTTP API.
	Algo() string
	// Graph returns the maintained graph — the store the service's classes
	// share, which the apply loop advances once per batch before any Apply
	// — used at registration to learn the node count (for batch
	// validation) and directedness (for coalescing).
	Graph() *graph.Graph
	// Apply repairs for a (pre-coalesced) batch its graph already took,
	// returning the maintainer's affected-area measure and cost counters.
	Apply(b graph.Batch) ApplyResult
	// Snapshot returns the current result view. The value must remain
	// valid — and must never be mutated by anyone — after further Apply
	// calls, because readers retain it without locks; it may share
	// immutable parts (the pages of a Paged vector) with earlier
	// snapshots. Called only from the apply-loop goroutine, so an
	// implementation may keep what it last returned and build on it.
	Snapshot() any
	// PersistState writes the maintainer's incremental state — the part a
	// batch rerun cannot cheaply rebuild with the right anchor order
	// (timestamps, intervals, component ids) — for a durability
	// checkpoint. Called only from the apply-loop goroutine.
	PersistState(w io.Writer) error
	// RestoreState installs state previously written by PersistState
	// against the same graph. Called during recovery, before the host's
	// apply loop starts.
	RestoreState(r io.Reader) error
	// Recompute discards the maintained answer and re-runs the batch
	// algorithm over the current graph — a start's batch run, the heal after
	// a recovered panic, the recovery-verification oracle. Called only from
	// the apply-loop goroutine (or a start, before hosting).
	Recompute()
}

// ApplyResult is what a maintainer reports back from one Apply call: the
// affected-area measure the paper's boundedness analysis is about, plus
// — for maintainers that keep fixpoint.Stats — the per-apply delta of
// their cost counters (reads, pops, the h/resume time split of
// Exp-2(2)). Adapters must report the delta attributable to this Apply,
// not the maintainer's cumulative totals.
type ApplyResult struct {
	// Affected is |H⁰| (or the class's equivalent affected-area measure).
	Affected int
	// Stats is the per-apply fixpoint counter delta; meaningful only when
	// HasStats is set.
	Stats fixpoint.Stats
	// HasStats reports whether the maintainer exposes fixpoint counters;
	// all six classes of this repository do.
	HasStats bool
	// Ledger is the per-apply work ledger: |ΔG|, |CHANGED|, |AFF|, ‖AFF‖,
	// rounds, and the recompute estimate Theorem 3's boundedness quotient
	// is computed from: the maintainer's own ledger's delta with Delta and
	// RecomputeEst filled in. Meaningful only when HasLedger is set.
	Ledger fixpoint.WorkLedger
	// HasLedger reports whether Ledger carries work accounting.
	HasLedger bool
}

// View is one published snapshot: the result of some applied prefix of
// the update stream. Views are immutable after publication, so any number
// of readers may share one.
type View struct {
	// Algo is the query class that produced the view.
	Algo string `json:"algo"`
	// Epoch counts the raw (pre-coalescing) unit updates incorporated,
	// in submission order: the view is exactly the query answer on
	// G ⊕ stream[:Epoch]. This is the handle for prefix-consistency
	// checks and for an eventual epoch-based double-buffer upgrade.
	Epoch uint64 `json:"epoch"`
	// Batches counts the coalesced Apply calls behind the view.
	Batches uint64 `json:"batches"`
	// Degraded marks a stale view republished after the maintainer
	// panicked: the data is the last good answer, at an epoch behind the
	// accepted stream. It clears once the host heals by batch recompute.
	Degraded bool `json:"degraded,omitempty"`
	// Data is the immutable, JSON-marshalable result (e.g. SSSPView). The
	// hosted classes' views hold their per-node vectors as Paged values,
	// whose unchanged pages successive epochs share.
	Data any `json:"data"`
}

// Options tune a host. MaxBatch, MaxWait, Queue, BaseEpoch and
// BaseBatches are the service's loop's and stream's: every host must pass
// the first one's (Service.Host).
type Options struct {
	// MaxBatch flushes the pending batch once it holds this many raw
	// updates. Default 256.
	MaxBatch int
	// MaxWait is the upper bound on how long the apply loop keeps
	// absorbing queued submissions into one batch: the batch is applied
	// as soon as the queue is empty or MaxBatch is reached, and after
	// MaxWait at the latest however fast submissions keep arriving. An
	// idle service never waits. Default 2ms.
	MaxWait time.Duration
	// Queue is the submission channel's buffer (backpressure beyond it:
	// Submit blocks). Default 1024.
	Queue int
	// OnApply, when set, is invoked synchronously from the apply loop
	// after each published batch — the hook structured logging hangs off.
	// It must be fast and must not call back into the Host.
	OnApply func(ApplyTrace)
	// BeforeApply, when set, runs in the apply loop just before each
	// maintainer Apply, after the graph took the batch — the
	// fault-injection point internal/serve/faults drives (it may panic to
	// exercise the isolation path). Production leaves it nil.
	BeforeApply func(algo string, b graph.Batch)
	// BaseEpoch and BaseBatches are the stream position the service
	// starts at, so a service recovered from a checkpoint + WAL replay
	// resumes the stream instead of restarting it at zero.
	BaseEpoch   uint64
	BaseBatches uint64
}

// applyRing is the capacity of a host's recent-applies ring buffer behind
// GET /debug/applies.
const applyRing = 128

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.Queue <= 0 {
		o.Queue = 1024
	}
	return o
}

// tracerSetter is the optional Serveable extension the tracing layer
// hooks into: maintainers built on (or mirroring) the fixpoint engine
// accept a span hook, driven from the service's apply loop.
type tracerSetter interface{ SetTracer(fixpoint.Tracer) }

// certifier is the optional Serveable extension recovery verification
// checks a restored class through: has reports whether the class has a
// certificate (sssp, cc), a check of its state against the graph that
// runs no batch algorithm; err is its outcome.
type certifier interface{ Certify() (has bool, err error) }

// Host is one class of a Service: its maintainer, published view, stats,
// metrics, trace ring and offenders. Only the service's apply loop touches
// the maintainer. The stream it consumes is the service's to account for.
type Host struct {
	svc  *Service
	m    Serveable
	algo string
	n    int
	dir  bool
	opt  Options

	// view is the published view. The apply loop is its only writer and
	// stores a new *View strictly after Apply and Snapshot complete;
	// views and everything they point to are immutable, so a reader needs
	// one atomic load and no lock, and never observes a half-applied
	// batch.
	view atomic.Pointer[View]

	// stats holds the class's own facts; its stream fields stay zero, and
	// Stats fills them from the service's account.
	statMu sync.Mutex
	stats  Stats

	met       hostMetrics
	traces    *obs.Ring[ApplyTrace]
	offenders *obs.TopK[Offender]

	// rec/track/engTracer are the span-tracing handles. engTracer (nil
	// unless the maintainer takes the tracer hook) is driven only from the
	// apply loop, matching the engine's single-writer contract.
	rec       *trace.Recorder
	track     int32
	engTracer *trace.EngineTracer

	// quarantined is set (apply loop only) when a heal recompute itself
	// panicked: the maintainer is permanently sidelined, batches are
	// drained and acknowledged without touching it, and reads keep being
	// served from the last published (stale, degraded) view.
	quarantined bool
}

// newHost builds s's host for m, with opt already defaulted, and publishes
// its initial view (epoch BaseEpoch: the batch-computed answer on G).
func newHost(s *Service, m Serveable, opt Options) *Host {
	h := &Host{
		svc:  s,
		m:    m,
		algo: m.Algo(),
		n:    m.Graph().NumNodes(),
		dir:  m.Graph().Directed(),
		opt:  opt,
		rec:  s.rec,
	}
	h.view.Store(&View{Algo: h.algo, Epoch: opt.BaseEpoch, Batches: opt.BaseBatches, Data: m.Snapshot()})
	h.stats.Algo = h.algo
	h.met = newHostMetrics(s.reg, h.algo)
	h.traces = obs.NewRing[ApplyTrace](applyRing)
	h.offenders = obs.NewTopK[Offender](offenderRing)
	h.track = h.rec.Track(h.algo)
	if ts, ok := m.(tracerSetter); ok {
		// Engine phases render on the same track as the host's batch
		// spans, so h/resume nest inside each apply.
		h.engTracer = trace.NewEngineTracerOnTrack(h.rec, h.track)
		ts.SetTracer(h.engTracer)
	}
	// The published view epoch as a gauge: a federating router compares
	// this series across shards to compute the cluster's epoch skew.
	s.reg.GaugeFunc("incgraph_view_epoch",
		"Raw-update epoch of the currently published view.",
		func() float64 { return float64(h.View().Epoch) },
		obs.L("algo", h.algo))
	return h
}

// Algo returns the hosted query class name.
func (h *Host) Algo() string { return h.algo }

// NumNodes returns the node count updates are validated against.
func (h *Host) NumNodes() int { return h.n }

// View returns the current published snapshot. The returned value is
// immutable and safe to retain across further updates.
func (h *Host) View() *View { return h.view.Load() }

// apply has the maintainer repair for one netted batch its graph took,
// publishes the new view, and records the apply in counters, histograms,
// gauges, the trace ring, and the flight recording: a root "batch" span
// containing "apply" — inside which the maintainer's own h/resume spans
// nest — and "publish", plus a "queue_wait" span from the oldest merged
// submission's enqueue to this class's turn. raw is the batch as
// submitted, net what the loop netted it to; the view is stamped with the
// stream position the loop moved to past it. Called only from the
// service's apply.
func (h *Host) apply(raw, net graph.Batch, oldest time.Time, tid trace.TraceID, why flushReason) {
	h.rec.Emit(trace.Event{
		Name: "queue_wait", Cat: "serve", Phase: trace.PhaseComplete,
		Track: h.track, TS: h.rec.At(oldest), Dur: h.rec.Now() - h.rec.At(oldest),
		Trace: tid,
	})
	root := h.rec.Begin("batch", "serve", h.track)
	root.SetTrace(tid)
	if h.engTracer != nil {
		h.engTracer.SetTraceID(tid)
	}
	sub := h.rec.Begin("apply", "serve", h.track)
	sub.SetTrace(tid)
	t0 := time.Now()
	queueWait := t0.Sub(oldest).Nanoseconds()
	if h.quarantined {
		sub.Arg("quarantined", 1)
		sub.End()
		root.End()
		h.absorbPanic(nil)
		return
	}
	res, data, pval, ok := h.runMaintainer(net)
	lat := time.Since(t0).Nanoseconds()
	if !ok {
		sub.Arg("panicked", 1)
		sub.End()
		root.End()
		h.absorbPanic(pval)
		return
	}
	sub.Arg("affected", int64(res.Affected))
	sub.End()
	sub = h.rec.Begin("publish", "serve", h.track)
	pub := publishDelta(h.view.Load().Data, data)

	at := h.svc.stream.pos()
	epoch, batches := at.epoch, at.batches // the loop moved the stream past this batch
	h.statMu.Lock()
	h.stats.applies++
	h.stats.AffectedTotal += int64(res.Affected)
	h.stats.LastApplyNanos = lat
	h.stats.TotalApplyNanos += lat
	if lat > h.stats.MaxApplyNanos {
		h.stats.MaxApplyNanos = lat
	}
	if res.HasStats {
		h.stats.Fixpoint = h.stats.Fixpoint.Add(res.Stats)
	}
	if res.HasLedger {
		h.stats.Audit = h.stats.Audit.Add(res.Ledger)
	}
	h.stats.PagesCopied += uint64(pub.pages)
	h.stats.EntriesCopied += uint64(pub.entries)
	h.stats.EntriesSpliced += uint64(pub.spliced)
	h.statMu.Unlock()

	h.view.Store(&View{Algo: h.algo, Epoch: epoch, Batches: batches, Data: data})

	sub.Arg("epoch", int64(epoch))
	sub.Arg("pages_copied", int64(pub.pages))
	sub.End()
	root.Arg("raw", int64(len(raw)))
	root.Arg("net", int64(len(net)))
	root.Arg("affected", int64(res.Affected))
	root.Arg("epoch", int64(epoch))
	root.Arg("queue_wait_nanos", queueWait)
	root.End()

	m := &h.met
	m.affectedTotal.Add(float64(res.Affected))
	m.applyLatency.Observe(float64(lat) / 1e9)
	m.queueWait.Observe(float64(queueWait) / 1e9)
	if len(net) > 0 {
		// The live boundedness ratio: the paper's Theorem 3 bounds the
		// incremental cost by a function of |ΔG| and |AFF|, so a ratio
		// that stays flat as the graph grows is boundedness observed.
		m.affRatio.Set(float64(res.Affected) / float64(len(net)))
	}
	tr := ApplyTrace{
		Algo:           h.algo,
		Epoch:          epoch,
		Batch:          batches,
		RawUpdates:     len(raw),
		NetUpdates:     len(net),
		Affected:       res.Affected,
		QueueWaitNanos: queueWait,
		ApplyNanos:     lat,
		UnixNanos:      t0.UnixNano() + lat,
		PagesCopied:    pub.pages,
		PagesTotal:     pub.total,
		FlushReason:    flushReasonNames[why],
	}
	m.pagesCopied.Add(float64(pub.pages))
	m.entriesSpliced.Add(float64(pub.spliced))
	m.viewPages.Set(float64(pub.total))
	if !tid.IsZero() {
		tr.TraceID = tid.String()
	}
	if res.HasStats {
		m.hSecondsTotal.Add(res.Stats.HSeconds)
		m.resumeSeconds.Add(res.Stats.ResumeSeconds)
		m.inspectedTotal.Add(float64(res.Stats.Inspected()))
		m.scopeSize.Set(float64(res.Stats.ScopeSize))
		if len(net) > 0 {
			m.inspectedPer.Set(float64(res.Stats.Inspected()) / float64(len(net)))
		}
		tr.HNanos = int64(res.Stats.HSeconds * 1e9)
		tr.ResumeNanos = int64(res.Stats.ResumeSeconds * 1e9)
		tr.Inspected = res.Stats.Inspected()
	}
	if res.HasLedger {
		led := res.Ledger
		m.workTotal.Add(float64(led.Work()))
		m.changedTotal.Add(float64(led.Changed))
		m.roundsHist.Observe(float64(led.Rounds))
		if led.RecomputeEst > 0 {
			m.recomputeRatio.Observe(led.RecomputeRatio())
		}
		tr.Work = led.Work()
		tr.Changed = led.Changed
		tr.Aff = led.Aff
		tr.AffEdges = led.AffEdges
		tr.Rounds = led.Rounds
		if led.Delta > 0 {
			// The audited boundedness quotient: one histogram sample per
			// apply, the last value on a gauge, and a top-K offer so the
			// worst applies survive with their trace IDs attached.
			ratio := led.BoundedRatio()
			m.boundedRatio.Observe(ratio)
			m.boundedLast.Set(ratio)
			tr.BoundedRatio = ratio
			off := Offender{
				Algo: h.algo, Epoch: epoch, Batch: batches,
				BoundedRatio: ratio, Work: led.Work(), Delta: led.Delta,
				ApplyNanos: lat, UnixNanos: tr.UnixNanos, TraceID: tr.TraceID,
			}
			if h.offenders.Offer(ratio, off) {
				m.offenderCount.Set(float64(h.offenders.Len()))
				m.offenderWorst.Set(h.offenders.Max())
				m.offenderMin.Set(h.offenders.Min())
			}
		}
	}
	h.traces.Push(tr)
	if h.opt.OnApply != nil {
		h.opt.OnApply(tr)
	}
}

// runMaintainer is the only place the apply loop touches the maintainer
// for a batch: the BeforeApply hook, Apply, and Snapshot, with a recover
// fence so a buggy (or fault-injected) maintainer cannot take the host —
// or the process — down. ok is false exactly when a panic was recovered,
// with its value in pval.
func (h *Host) runMaintainer(net graph.Batch) (res ApplyResult, data any, pval any, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			pval = p
			ok = false
		}
	}()
	if h.opt.BeforeApply != nil {
		h.opt.BeforeApply(h.algo, net)
	}
	res = h.m.Apply(net)
	data = h.m.Snapshot()
	return res, data, nil, true
}

// absorbPanic handles a recovered maintainer panic (pval non-nil), or a
// batch arriving while the host is quarantined (pval nil). The stream and
// the graph have moved past the batch all the same; the last good view is
// republished with the degraded flag so readers get stale answers instead
// of 500s, and then the host heals by batch recompute over its graph. A
// panic during the heal itself quarantines the host permanently: it keeps
// draining, acknowledging, and serving the stale view, but never touches
// the maintainer again. Called only from the apply loop.
func (h *Host) absorbPanic(pval any) {
	panicked := pval != nil
	if panicked {
		h.met.panics.Inc()
		panicEvent(h.rec, h.track, pval)
	}

	h.statMu.Lock()
	if panicked {
		h.stats.Panics++
	}
	h.stats.Degraded = true
	h.statMu.Unlock()
	h.publishDegraded()

	if h.quarantined {
		return
	}
	data, healed := h.rebuild("heal", h.m.Recompute)
	if !healed {
		return
	}

	h.statMu.Lock()
	h.stats.Heals++
	h.stats.Degraded = false
	h.statMu.Unlock()
	h.met.heals.Inc()
	h.met.degraded.Set(0)

	at := h.svc.stream.pos()
	h.view.Store(&View{Algo: h.algo, Epoch: at.epoch, Batches: at.batches, Data: data})
}

// publishDegraded republishes the last good data under the degraded flag,
// at the stream's batch count. The epoch is the stale view's: it honestly
// describes which prefix the data answers for. Called only from the apply
// loop.
func (h *Host) publishDegraded() {
	h.met.degraded.Set(1)
	old := h.view.Load()
	h.view.Store(&View{Algo: h.algo, Epoch: old.Epoch, Batches: h.svc.stream.pos().batches, Degraded: true, Data: old.Data})
}

// rebuild runs redo — the heal's batch rerun over the graph after a
// panic, or the verification at a promotion — and returns the fresh
// snapshot, in a span called name. A panic anywhere quarantines the host.
// Called only from the apply loop.
func (h *Host) rebuild(name string, redo func()) (data any, ok bool) {
	span := h.rec.Begin(name, "serve", h.track)
	defer func() {
		if recover() != nil {
			data, ok = nil, false
		}
		h.quarantined = !ok
		span.Arg("ok", boolArg(ok))
		span.End()
	}()
	redo()
	return h.m.Snapshot(), true
}

// Verify is VerifyRecovered for a maintainer that is already hosted (a
// warm replica at promotion): from inside the apply loop, after every
// accepted submission, it checks the class by its certificate or a
// recompute in place (verifyClass), publishes the answer at the same epoch
// and reports whether it differed — which the design treats as a bug. An
// error means the recompute panicked and the host is quarantined on its
// last good view.
func (h *Host) Verify() (diverged bool, err error) {
	err = h.WithState(func(Serveable) error {
		if h.quarantined {
			return fmt.Errorf("serve: %s is quarantined", h.algo)
		}
		data, ok := h.rebuild("verify", func() { diverged = verifyClass(h.m, nil).Diverged })
		if !ok {
			h.statMu.Lock()
			h.stats.Degraded = true
			h.statMu.Unlock()
			h.publishDegraded()
			return fmt.Errorf("serve: %s: recompute panicked", h.algo)
		}
		old := h.view.Load()
		h.view.Store(&View{Algo: h.algo, Epoch: old.Epoch, Batches: old.Batches, Data: data})
		return nil
	})
	return diverged, err
}

// panicEvent records a recovered panic as an instant event on track.
func panicEvent(rec *trace.Recorder, track int32, pval any) {
	ev := trace.Event{Name: "panic", Cat: "serve", Phase: trace.PhaseInstant, Track: track, TS: rec.Now()}
	ev.AddArg("value", int64(len(fmt.Sprint(pval)))) // length only: arg values are integers
	rec.Emit(ev)
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
