// Package serve hosts incremental maintainers behind a concurrent
// service API: a resident process ingests a stream of update batches ΔG
// while answering queries continuously, which is the setting where the
// paper's incrementalization pays off — the batch fixpoint cost is paid
// once at startup, and every subsequent change is absorbed by Apply.
//
// The concurrency contract is built on the fact that maintainers
// (sssp.Inc, cc.Inc, …) are single-writer objects: every maintainer is
// owned by exactly one apply-loop goroutine, which is the only caller of
// Apply and Snapshot. Readers never touch the maintainer; they read an
// immutable snapshot view published after each applied batch.
//
// A Host additionally coalesces and batches the update stream before it
// reaches the maintainer, by group commit: the apply loop takes everything
// that queued up while the previous apply ran (up to a size budget) as one
// batch and applies it as soon as the queue is empty, so an idle host adds
// no latency and a busy one merges exactly as much as arrived. The
// accumulated batch is reduced with Batch.Net so churn (insert/delete
// pairs of the same edge, duplicate operations) cancels out instead of
// being paid for inside the repair machinery. This amortizes the
// per-batch fixed costs (scope construction, priority-queue setup) that
// dominate when updates arrive one at a time.
package serve

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/trace"
)

// Serveable adapts an incremental maintainer to the service layer. The
// host guarantees Apply and Snapshot are only ever called from its
// single apply-loop goroutine, matching the maintainers' one-writer
// contract; Algo and Graph must be safe to call once at registration.
type Serveable interface {
	// Algo names the hosted query class ("sssp", "cc", …); it is the
	// routing key of the HTTP API.
	Algo() string
	// Graph returns the maintained graph, used at registration to learn
	// the node count (for batch validation) and directedness (for
	// coalescing). The host never mutates or reads it afterwards.
	Graph() *graph.Graph
	// Apply incorporates a (pre-coalesced) batch, returning the
	// maintainer's affected-area measure and cost counters.
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
	// algorithm over the current graph — the self-healing path after a
	// recovered panic, and the recovery-verification oracle. Called only
	// from the apply-loop goroutine (or single-threaded recovery).
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

// ApplyTrace is one entry of a host's bounded ring of recent applies —
// the raw material for watching the boundedness claim live: |AFF| against
// |ΔG| (raw and net of coalescing), the h/resume split, and where the
// latency went. Dumped by GET /debug/applies.
type ApplyTrace struct {
	Algo string `json:"algo"`
	// Epoch is the raw-update epoch of the view this apply published.
	Epoch uint64 `json:"epoch"`
	// Batch is the ordinal of this Apply call on the maintainer.
	Batch uint64 `json:"batch"`
	// RawUpdates and NetUpdates are |ΔG| before and after coalescing.
	RawUpdates int `json:"raw_updates"`
	NetUpdates int `json:"net_updates"`
	// Affected is the maintainer's affected-area measure for this batch.
	Affected int `json:"affected"`
	// QueueWaitNanos is how long the oldest merged submission sat queued
	// before the maintainer saw it.
	QueueWaitNanos int64 `json:"queue_wait_nanos"`
	ApplyNanos     int64 `json:"apply_nanos"`
	// HNanos/ResumeNanos split ApplyNanos into the initial scope function
	// h and the resumed step function (engine-based maintainers only).
	HNanos      int64 `json:"h_nanos"`
	ResumeNanos int64 `json:"resume_nanos"`
	// Inspected is the per-apply variable-inspection count (engine-based
	// maintainers only).
	Inspected int64 `json:"inspected"`
	// Work, Changed, Aff, AffEdges, and Rounds are the apply's work-ledger
	// account (ledger-reporting maintainers only): the incremental-cost
	// measure Touched+|AFF|+‖AFF‖ and its components.
	Work     int64 `json:"work,omitempty"`
	Changed  int64 `json:"changed,omitempty"`
	Aff      int64 `json:"aff,omitempty"`
	AffEdges int64 `json:"aff_edges,omitempty"`
	Rounds   int64 `json:"rounds,omitempty"`
	// BoundedRatio is Work/|ΔG| for this apply — the per-batch relative-
	// boundedness quotient; 0 when the net batch was empty.
	BoundedRatio float64 `json:"bounded_ratio,omitempty"`
	// PagesCopied of the view's PagesTotal pages were copied to publish
	// this apply; the rest are shared with the previous epoch's view.
	// Both are 0 for a view that holds no Paged vectors.
	PagesCopied int `json:"pages_copied"`
	PagesTotal  int `json:"pages_total"`
	// FlushReason is why the apply loop stopped accumulating and applied:
	// "drain" (the submission queue was empty), "full" (MaxBatch reached),
	// "timer" (MaxWait ran out while submissions kept arriving), "state"
	// (a WithState job needed every earlier submission applied) or "close".
	FlushReason string `json:"flush_reason"`
	// UnixNanos timestamps the apply's completion.
	UnixNanos int64 `json:"unix_nanos"`
	// TraceID is the W3C trace ID of the first traced submission merged
	// into this batch ("" when no submission carried one), correlating
	// the apply with request logs and the flight recording.
	TraceID string `json:"trace_id,omitempty"`
}

// Offender is one retained entry of a host's top-K worst-boundedness
// ring: an applied batch whose work-per-update ratio ranked among the
// highest the host has seen. TraceID (when the triggering submission
// carried one) links the offender to its spans in the flight recording
// and to request logs — the forensic path from "the ratio spiked" to
// "this request did it". Dumped by GET /debug/offenders.
type Offender struct {
	Algo string `json:"algo"`
	// Epoch/Batch identify the apply (same coordinates as ApplyTrace).
	Epoch uint64 `json:"epoch"`
	Batch uint64 `json:"batch"`
	// BoundedRatio is the apply's Work/|ΔG| — its ranking score.
	BoundedRatio float64 `json:"bounded_ratio"`
	// Work and Delta are the ratio's numerator and denominator.
	Work  int64 `json:"work"`
	Delta int64 `json:"delta"`
	// ApplyNanos is the apply's wall latency.
	ApplyNanos int64 `json:"apply_nanos"`
	// UnixNanos timestamps the apply's completion.
	UnixNanos int64 `json:"unix_nanos"`
	// TraceID is the W3C trace ID of the batch, "" when untraced.
	TraceID string `json:"trace_id,omitempty"`
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

// Stats are per-host serving counters, exposed on /stats.
type Stats struct {
	Algo string `json:"algo"`
	// Epoch mirrors the published view's epoch.
	Epoch uint64 `json:"epoch"`
	// UpdatesReceived counts raw unit updates accepted by Submit.
	UpdatesReceived uint64 `json:"updates_received"`
	// UpdatesApplied counts raw unit updates incorporated into the view.
	UpdatesApplied uint64 `json:"updates_applied"`
	// UpdatesCoalesced counts updates cancelled before reaching the
	// maintainer: raw minus net, summed over batches. Nonzero whenever
	// the stream contained churn inside one batching window.
	UpdatesCoalesced uint64 `json:"updates_coalesced"`
	// BatchesApplied counts Apply calls on the maintainer.
	BatchesApplied uint64 `json:"batches_applied"`
	// AffectedTotal sums the maintainer's per-Apply affected-area
	// measure (|H⁰| or equivalent).
	AffectedTotal int64 `json:"affected_total"`
	// QueueDepth is the number of received-but-not-yet-applied updates.
	QueueDepth uint64 `json:"queue_depth"`
	// Apply latency, nanoseconds.
	LastApplyNanos  int64 `json:"last_apply_nanos"`
	MaxApplyNanos   int64 `json:"max_apply_nanos"`
	TotalApplyNanos int64 `json:"total_apply_nanos"`
	// MeanApplyNanos is TotalApplyNanos/BatchesApplied, precomputed so
	// clients don't have to divide raw totals.
	MeanApplyNanos int64 `json:"mean_apply_nanos"`
	// Apply-latency quantiles, estimated from the host's log-bucketed
	// histogram (≤6.25% relative error; see internal/obs). Zero until the
	// first apply. Present so operators get percentiles from one GET
	// /stats without running a Prometheus scrape pipeline.
	ApplyP50Nanos int64 `json:"apply_p50_nanos"`
	ApplyP95Nanos int64 `json:"apply_p95_nanos"`
	ApplyP99Nanos int64 `json:"apply_p99_nanos"`
	// Degraded reports whether the host is serving a stale snapshot after
	// a maintainer panic (see View.Degraded); Panics and Heals count the
	// recovered panics and the successful batch-recompute heals. A host
	// whose heal itself panicked stays degraded permanently (quarantined)
	// but keeps answering reads.
	Degraded bool   `json:"degraded,omitempty"`
	Panics   uint64 `json:"panics,omitempty"`
	Heals    uint64 `json:"heals,omitempty"`
	// UptimeSeconds is the time since the host started serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Fixpoint aggregates the maintainer's per-apply cost-counter deltas
	// (engine-based maintainers only; ScopeSize is the last apply's |H⁰|).
	Fixpoint fixpoint.Stats `json:"fixpoint"`
	// Audit aggregates the maintainer's per-apply work ledgers — the
	// cumulative |ΔG|, |CHANGED|, |AFF|, ‖AFF‖ account behind
	// GET /debug/boundedness. Zero-valued for maintainers that report no
	// ledger.
	Audit fixpoint.WorkLedger `json:"audit"`
	// PagesCopied and EntriesCopied total what view publication copied
	// (pages, and the vector entries in them) over all applies — the
	// serving layer's own cost beside the engine's Audit.
	PagesCopied   uint64 `json:"pages_copied"`
	EntriesCopied uint64 `json:"entries_copied"`
	// PagesEncoded counts the view pages GET /query encoded from scratch:
	// pages nobody had read, neither themselves nor the page they were
	// copied from. A cached page is not counted.
	PagesEncoded uint64 `json:"pages_encoded"`
	// EntriesSpliced counts the entries publication re-encoded into the
	// cached bytes a replaced page inherited from its predecessor (the
	// entries whose value changed; the unchanged byte runs are copied).
	EntriesSpliced uint64 `json:"entries_spliced"`
}

// Options tune a host's batching behaviour.
type Options struct {
	// MaxBatch flushes the pending batch once it holds this many raw
	// updates. Default 256.
	MaxBatch int
	// MaxWait is the upper bound on how long the apply loop keeps
	// absorbing queued submissions into one batch: the batch is applied
	// as soon as the queue is empty or MaxBatch is reached, and after
	// MaxWait at the latest however fast submissions keep arriving. An
	// idle host never waits. Default 2ms.
	MaxWait time.Duration
	// Queue is the submission channel's buffer (backpressure beyond it:
	// Submit blocks). Default 1024.
	Queue int
	// Registry receives the host's metrics (apply-latency histograms,
	// coalescing counters, the live boundedness-ratio gauge). A Service
	// passes its own registry so /metrics covers every host; nil gets a
	// private registry, keeping standalone hosts self-contained.
	Registry *obs.Registry
	// Trace is the capacity of the recent-applies ring buffer behind
	// GET /debug/applies. Default 128.
	Trace int
	// Recorder receives span/flight-recorder events: one root span per
	// applied batch (queue wait → coalesce → apply → publish) and, for
	// maintainers exposing the fixpoint tracer hook, h-phase/resume spans
	// with per-round propagation events. A Service passes its own
	// recorder so GET /debug/trace covers every host; nil disables
	// tracing for standalone hosts (zero overhead).
	Recorder *trace.Recorder
	// OnApply, when set, is invoked synchronously from the apply loop
	// after each published batch — the hook structured logging hangs off.
	// It must be fast and must not call back into the Host.
	OnApply func(ApplyTrace)
	// BeforeApply, when set, runs in the apply loop just before each
	// maintainer Apply — the fault-injection point internal/serve/faults
	// drives (it may panic to exercise the isolation path). Production
	// leaves it nil.
	BeforeApply func(algo string, b graph.Batch)
	// BaseEpoch and BaseBatches seed the host's epoch accounting, so a
	// host recovered from a checkpoint + WAL replay resumes its counters
	// instead of restarting the stream at zero.
	BaseEpoch   uint64
	BaseBatches uint64
}

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
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Trace <= 0 {
		o.Trace = 128
	}
	return o
}

// offenderRing is the capacity of the top-K worst-boundedness ring behind
// GET /debug/offenders.
const offenderRing = 32

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: host closed")

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

// tracerSetter is the optional Serveable extension the tracing layer
// hooks into: maintainers built on (or mirroring) the fixpoint engine
// accept a span hook, driven from the host's apply loop.
type tracerSetter interface{ SetTracer(fixpoint.Tracer) }

// flatViewer is the optional Serveable extension exposing the
// maintainer's flat adjacency view (SSSP, CC, DFS, LCC, BC keep one), read
// after each Apply for the compaction and dead-space metrics. Called only
// from the apply loop, honoring the maintainers' single-writer contract.
type flatViewer interface{ Flat() *graph.Flat }

// hostMetrics are a host's registry handles, resolved once at
// construction so the apply loop only touches lock-free atomics.
type hostMetrics struct {
	updatesReceived *obs.Counter
	updatesApplied  *obs.Counter
	updatesCoal     *obs.Counter
	batchesApplied  *obs.Counter
	affectedTotal   *obs.Counter
	hSecondsTotal   *obs.Counter
	resumeSeconds   *obs.Counter
	inspectedTotal  *obs.Counter

	applyLatency  *obs.Histogram
	batchSize     *obs.Histogram
	queueWait     *obs.Histogram
	coalesceRatio *obs.Histogram

	affRatio     *obs.Gauge
	inspectedPer *obs.Gauge
	scopeSize    *obs.Gauge

	panics   *obs.Counter
	heals    *obs.Counter
	degraded *obs.Gauge

	workTotal      *obs.Counter
	changedTotal   *obs.Counter
	boundedRatio   *obs.Histogram
	recomputeRatio *obs.Histogram
	roundsHist     *obs.Histogram
	boundedLast    *obs.Gauge
	offenderCount  *obs.Gauge
	offenderWorst  *obs.Gauge
	offenderMin    *obs.Gauge

	flatCompactions *obs.Counter
	flatOverlay     *obs.Gauge

	pagesCopied    *obs.Counter
	pagesEncoded   *obs.Counter
	entriesSpliced *obs.Counter
	viewPages      *obs.Gauge

	flushes [numFlushReasons]*obs.Counter
}

func newHostMetrics(r *obs.Registry, algo string) hostMetrics {
	l := obs.L("algo", algo)
	var flushes [numFlushReasons]*obs.Counter
	for why, name := range flushReasonNames {
		flushes[why] = r.Counter("incgraph_apply_flushes_total", "Batches the apply loop closed, by what closed them: drain (queue empty), full (MaxBatch), timer (MaxWait), state (WithState job), close.", l, obs.L("reason", name))
	}
	return hostMetrics{
		flushes:         flushes,
		updatesReceived: r.Counter("incgraph_updates_received_total", "Raw unit updates accepted by Submit.", l),
		updatesApplied:  r.Counter("incgraph_updates_applied_total", "Raw unit updates incorporated into the published view.", l),
		updatesCoal:     r.Counter("incgraph_updates_coalesced_total", "Updates cancelled by batch coalescing before reaching the maintainer.", l),
		batchesApplied:  r.Counter("incgraph_batches_applied_total", "Apply calls on the maintainer.", l),
		affectedTotal:   r.Counter("incgraph_affected_total", "Sum of per-apply affected-area measures (|AFF|).", l),
		hSecondsTotal:   r.Counter("incgraph_fixpoint_h_seconds_total", "Wall seconds spent in the initial scope function h.", l),
		resumeSeconds:   r.Counter("incgraph_fixpoint_resume_seconds_total", "Wall seconds spent in the resumed step function.", l),
		inspectedTotal:  r.Counter("incgraph_fixpoint_inspected_total", "Status-variable inspections (reads+updates+pops) by incremental runs.", l),
		applyLatency:    r.Histogram("incgraph_apply_latency_seconds", "Wall time of one maintainer Apply call.", l),
		batchSize:       r.Histogram("incgraph_batch_size_updates", "Raw unit updates merged into one Apply call.", l),
		queueWait:       r.Histogram("incgraph_queue_wait_seconds", "Queue time of the oldest submission merged into each batch.", l),
		coalesceRatio:   r.Histogram("incgraph_coalesce_ratio", "Fraction of each batch cancelled by coalescing (raw-net)/raw.", l),
		affRatio:        r.Gauge("incgraph_aff_per_delta_ratio", "Last apply's |AFF|/|ΔG| — the observed relative-boundedness ratio.", l),
		inspectedPer:    r.Gauge("incgraph_inspected_per_update", "Last apply's fixpoint inspections per net update.", l),
		scopeSize:       r.Gauge("incgraph_fixpoint_scope_size", "Last apply's initial scope size |H⁰|.", l),
		panics:          r.Counter("incgraph_apply_panics_total", "Maintainer panics recovered by the apply loop.", l),
		heals:           r.Counter("incgraph_heals_total", "Successful batch-recompute heals after a recovered panic.", l),
		degraded:        r.Gauge("incgraph_degraded", "1 while the host serves a stale snapshot after a panic.", l),
		workTotal:       r.Counter("incgraph_work_total", "Ledger work units (touched+|AFF|+‖AFF‖) charged by applies.", l),
		changedTotal:    r.Counter("incgraph_changed_total", "Variables whose value changed across applies (|CHANGED|).", l),
		boundedRatio:    r.Histogram("incgraph_bounded_ratio", "Per-apply work/|ΔG| — the relative-boundedness quotient distribution.", l),
		recomputeRatio:  r.Histogram("incgraph_recompute_ratio", "Per-apply work/recompute-estimate — fraction of a from-scratch run.", l),
		roundsHist:      r.Histogram("incgraph_rounds_to_fixpoint", "Per-apply propagation rounds until the resumed drain reached fixpoint.", l),
		boundedLast:     r.Gauge("incgraph_bounded_ratio_last", "Most recent apply's work/|ΔG| boundedness quotient.", l),
		offenderCount:   r.Gauge("incgraph_offender_count", "Entries retained in the top-K worst-boundedness ring.", l),
		offenderWorst:   r.Gauge("incgraph_offender_worst_ratio", "Highest boundedness quotient ever retained by the offender ring.", l),
		offenderMin:     r.Gauge("incgraph_offender_min_ratio", "Lowest retained offender quotient — the ring's admission threshold.", l),
		flatCompactions: r.Counter("incgraph_flat_compactions_total", "Compactions (row layouts from the graph) of the maintainer's flat adjacency view.", l),
		flatOverlay:     r.Gauge("incgraph_flat_overlay_ratio", "Dead space (array slots a compaction would reclaim) as a fraction of the flat view's live entries after the last apply.", l),
		pagesCopied:     r.Counter("incgraph_view_pages_copied_total", "View pages copied by publication (the rest are shared with the previous epoch).", l),
		pagesEncoded:    r.Counter("incgraph_view_pages_encoded_total", "View pages GET /query encoded from scratch (cached pages, and pages born cached from the page they replaced, are not).", l),
		entriesSpliced:  r.Counter("incgraph_view_entries_spliced_total", "Changed entries publication re-encoded into the cached bytes a replaced page inherited.", l),
		viewPages:       r.Gauge("incgraph_view_pages", "Pages in the published view's vectors.", l),
	}
}

// Host runs one maintainer behind a single-writer apply loop with
// snapshot-consistent concurrent reads.
type Host struct {
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

	statMu sync.Mutex
	stats  Stats

	start     time.Time
	met       hostMetrics
	traces    *obs.Ring[ApplyTrace]
	offenders *obs.TopK[Offender]

	// rec/track/engTracer are the span-tracing handles; all nil/zero when
	// no recorder is configured. engTracer is driven only from the apply
	// loop, matching the engine's single-writer contract.
	rec       *trace.Recorder
	track     int32
	engTracer *trace.EngineTracer

	// flatSeen is the flat view's compaction count as of the last apply
	// (apply loop only), so the counter metric advances by the difference.
	flatSeen int64

	// quarantined is set (apply loop only) when a heal recompute itself
	// panicked: the maintainer is permanently sidelined, batches are
	// drained and acknowledged without touching it, and reads keep being
	// served from the last published (stale, degraded) view.
	quarantined bool

	// submitMu serializes Submit against Close: Submit sends on in under
	// the read side, Close flips closed under the write side, so no send
	// can race past a completed Close and be silently dropped.
	submitMu sync.RWMutex
	closed   bool
	in       chan submission

	quit chan struct{}
	done chan struct{}
}

// NewHost starts the apply loop for m and publishes its initial view
// (epoch 0: the batch-computed answer on G).
func NewHost(m Serveable, opt Options) *Host {
	g := m.Graph()
	h := &Host{
		m:    m,
		algo: m.Algo(),
		n:    g.NumNodes(),
		dir:  g.Directed(),
		opt:  opt.withDefaults(),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	h.in = make(chan submission, h.opt.Queue)
	h.view.Store(&View{Algo: h.algo, Epoch: h.opt.BaseEpoch, Batches: h.opt.BaseBatches, Data: m.Snapshot()})
	h.stats.Algo = h.algo
	// A recovered host resumes its stream accounting where the durable
	// prefix left off.
	h.stats.Epoch = h.opt.BaseEpoch
	h.stats.UpdatesReceived = h.opt.BaseEpoch
	h.stats.UpdatesApplied = h.opt.BaseEpoch
	h.stats.BatchesApplied = h.opt.BaseBatches
	h.start = time.Now()
	h.met = newHostMetrics(h.opt.Registry, h.algo)
	h.traces = obs.NewRing[ApplyTrace](h.opt.Trace)
	h.offenders = obs.NewTopK[Offender](offenderRing)
	if h.opt.Recorder != nil {
		h.rec = h.opt.Recorder
		h.track = h.rec.Track(h.algo)
		if ts, ok := m.(tracerSetter); ok {
			// Engine phases render on the same track as the host's batch
			// spans, so h/resume nest inside each apply.
			h.engTracer = trace.NewEngineTracerOnTrack(h.rec, h.track)
			ts.SetTracer(h.engTracer)
		}
	}
	h.opt.Registry.GaugeFunc("incgraph_queue_depth",
		"Received-but-not-yet-applied unit updates.",
		func() float64 { return float64(h.Stats().QueueDepth) },
		obs.L("algo", h.algo))
	// The published view epoch as a gauge: a federating router compares
	// this series across shards to compute the cluster's epoch skew.
	h.opt.Registry.GaugeFunc("incgraph_view_epoch",
		"Raw-update epoch of the currently published view.",
		func() float64 { return float64(h.View().Epoch) },
		obs.L("algo", h.algo))
	h.opt.Registry.Gauge("incgraph_graph_nodes",
		"Node count of the maintained graph at registration.",
		obs.L("algo", h.algo)).Set(float64(h.n))
	go h.loop()
	return h
}

// Registry returns the registry the host's metrics live in.
func (h *Host) Registry() *obs.Registry { return h.opt.Registry }

// RecentApplies returns the retained apply trace events, oldest first.
func (h *Host) RecentApplies() []ApplyTrace { return h.traces.Snapshot() }

// Offenders returns the retained worst-boundedness applies, worst first.
func (h *Host) Offenders() []Offender { return h.offenders.Snapshot() }

// BoundednessReport is the per-host payload of GET /debug/boundedness:
// the cumulative audit ledger, its derived cost-model quotients, and
// quantiles of the per-apply boundedness-ratio distribution. Quantile
// fields are zero until the first audited apply — never NaN, so the
// report always JSON-encodes.
type BoundednessReport struct {
	Algo string `json:"algo"`
	// Ledger is the cumulative audit ledger (Stats.Audit).
	Ledger fixpoint.WorkLedger `json:"ledger"`
	// Work is the cumulative incremental-cost measure touched+|AFF|+‖AFF‖.
	Work int64 `json:"work"`
	// BoundedRatio and RecomputeRatio are the cumulative Work/Δ and
	// Work/recompute-estimate quotients.
	BoundedRatio   float64 `json:"bounded_ratio"`
	RecomputeRatio float64 `json:"recompute_ratio"`
	// RatioP50/P95/Max are quantiles of the per-apply bounded-ratio
	// histogram (≤6.25% relative error; Max is exact).
	RatioP50 float64 `json:"ratio_p50"`
	RatioP95 float64 `json:"ratio_p95"`
	RatioMax float64 `json:"ratio_max"`
	// RoundsP95 is the p95 of per-apply rounds-to-fixpoint.
	RoundsP95 float64 `json:"rounds_p95"`
	// OffenderCount and WorstRatio summarize the top-K offender ring.
	OffenderCount int     `json:"offender_count"`
	WorstRatio    float64 `json:"worst_ratio"`
	// EntriesCopied is the cumulative count of view entries publication
	// copied, and PublishRatio that count per net update (EntriesCopied /
	// Ledger.Delta): the serving layer's bounded ratio, to read beside the
	// engine's. It is at most a page per entry an apply changed; a value
	// near |V| means every publish copies the whole view. 0 until the
	// first audited apply.
	EntriesCopied int64   `json:"entries_copied"`
	PublishRatio  float64 `json:"publish_ratio"`
}

// Boundedness assembles the host's boundedness-audit report.
func (h *Host) Boundedness() BoundednessReport {
	h.statMu.Lock()
	audit, entries := h.stats.Audit, int64(h.stats.EntriesCopied)
	h.statMu.Unlock()
	rep := BoundednessReport{
		EntriesCopied:  entries,
		Algo:           h.algo,
		Ledger:         audit,
		Work:           audit.Work(),
		BoundedRatio:   audit.BoundedRatio(),
		RecomputeRatio: audit.RecomputeRatio(),
		OffenderCount:  h.offenders.Len(),
		WorstRatio:     h.offenders.Max(),
	}
	if hist := h.met.boundedRatio; hist.Count() > 0 {
		rep.RatioP50 = hist.Quantile(0.5)
		rep.RatioP95 = hist.Quantile(0.95)
		rep.RatioMax = hist.Quantile(1)
	}
	if hist := h.met.roundsHist; hist.Count() > 0 {
		rep.RoundsP95 = hist.Quantile(0.95)
	}
	if audit.Delta > 0 {
		rep.PublishRatio = float64(entries) / float64(audit.Delta)
	}
	return rep
}

// Algo returns the hosted query class name.
func (h *Host) Algo() string { return h.algo }

// NumNodes returns the node count updates are validated against.
func (h *Host) NumNodes() int { return h.n }

// View returns the current published snapshot. The returned value is
// immutable and safe to retain across further updates.
func (h *Host) View() *View { return h.view.Load() }

// Stats returns a copy of the serving counters, with the derived fields
// (queue depth, mean latency, uptime) filled in.
func (h *Host) Stats() Stats {
	h.statMu.Lock()
	s := h.stats
	h.statMu.Unlock()
	s.QueueDepth = s.UpdatesReceived - s.UpdatesApplied
	if s.BatchesApplied > 0 {
		s.MeanApplyNanos = s.TotalApplyNanos / int64(s.BatchesApplied)
	}
	if hist := h.met.applyLatency; hist.Count() > 0 {
		// Quantiles come from the same histogram /metrics exposes; the
		// zero-sample guard keeps NaN out of the JSON encoder.
		s.ApplyP50Nanos = int64(hist.Quantile(0.5) * 1e9)
		s.ApplyP95Nanos = int64(hist.Quantile(0.95) * 1e9)
		s.ApplyP99Nanos = int64(hist.Quantile(0.99) * 1e9)
	}
	s.PagesEncoded = uint64(h.met.pagesEncoded.Value())
	s.UptimeSeconds = time.Since(h.start).Seconds()
	return s
}

// Submit validates b and enqueues it for the apply loop, returning once
// the batch is accepted (not yet applied). It blocks when the queue is
// full — backpressure, not loss.
func (h *Host) Submit(b graph.Batch) error {
	_, err := h.submit(b, trace.TraceID{}, false)
	return err
}

// SubmitWait is Submit, but also waits until the batch has been applied
// and its view published.
func (h *Host) SubmitWait(b graph.Batch) error {
	ack, err := h.submit(b, trace.TraceID{}, true)
	if err != nil {
		return err
	}
	<-ack
	return nil
}

// SubmitTraced is Submit/SubmitWait with a request trace ID: the ID is
// carried through the queue into the apply that incorporates the batch,
// stamped on its spans, its ApplyTrace entry, and the OnApply hook —
// the handle for following one request through the flight recording.
func (h *Host) SubmitTraced(b graph.Batch, tid trace.TraceID, wait bool) error {
	ack, err := h.submit(b, tid, wait)
	if err != nil {
		return err
	}
	if wait {
		<-ack
	}
	return nil
}

// SubmitTracedAck enqueues like SubmitTraced and returns a channel that
// closes once the batch's view is published, letting callers (the
// durability layer) separate enqueueing from waiting.
func (h *Host) SubmitTracedAck(b graph.Batch, tid trace.TraceID) (<-chan struct{}, error) {
	return h.submit(b, tid, true)
}

// Saturated reports whether the submission queue is full: a Submit now
// would block on backpressure. The serving layer probes it to shed load
// with 503 instead of stalling ingest — advisory, since the queue may
// drain (or fill) between the probe and the submit.
func (h *Host) Saturated() bool {
	return len(h.in) >= cap(h.in)
}

// WithState runs fn against the maintainer from inside the apply loop,
// after every previously accepted submission has been applied — the
// mechanism checkpoints use to serialize state at a consistent cut. It
// blocks until fn returns (or the host is closed) and returns fn's
// error.
func (h *Host) WithState(fn func(m Serveable) error) error {
	ack := make(chan struct{})
	var err error
	job := submission{at: time.Now(), ack: ack, fn: func() { err = fn(h.m) }}
	h.submitMu.RLock()
	if h.closed {
		h.submitMu.RUnlock()
		return ErrClosed
	}
	h.in <- job
	h.submitMu.RUnlock()
	<-ack
	return err
}

func (h *Host) submit(b graph.Batch, tid trace.TraceID, wait bool) (chan struct{}, error) {
	if err := b.Validate(h.n); err != nil {
		return nil, err
	}
	// Copy: the caller may reuse its slice after Submit returns.
	owned := append(graph.Batch(nil), b...)
	var ack chan struct{}
	if wait {
		ack = make(chan struct{})
	}
	h.submitMu.RLock()
	defer h.submitMu.RUnlock()
	if h.closed {
		return nil, ErrClosed
	}
	h.statMu.Lock()
	h.stats.UpdatesReceived += uint64(len(owned))
	h.statMu.Unlock()
	h.met.updatesReceived.Add(float64(len(owned)))
	h.in <- submission{b: owned, ack: ack, at: time.Now(), tid: tid}
	return ack, nil
}

// Close stops accepting submissions, drains and applies everything
// already accepted, publishes the final view, and waits for the apply
// loop to exit. It is idempotent.
func (h *Host) Close() {
	h.submitMu.Lock()
	already := h.closed
	h.closed = true
	h.submitMu.Unlock()
	if !already {
		close(h.quit)
	}
	<-h.done
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

// loop is the single writer: the only goroutine that touches the
// maintainer after NewHost returns. Its batching policy is group commit:
// a batch is whatever queued up while the previous apply ran, applied the
// moment the queue is empty (or MaxBatch is reached). Coalescing therefore
// happens exactly when submissions outpace applies, and an idle host adds
// no wait to a submission; MaxWait only bounds how long a queue that never
// empties can keep a batch open.
func (h *Host) loop() {
	defer close(h.done)
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
			h.apply(pending, oldest, pendTID, why)
			pending = nil
			pendTID = trace.TraceID{}
		}
		for _, a := range acks {
			close(a)
		}
		acks = nil
	}
	add := func(s submission) {
		if s.fn != nil {
			// State job: flush so the maintainer reflects every earlier
			// submission (channel order), then hand it the loop's turn.
			flush(flushState)
			s.fn()
			if s.ack != nil {
				close(s.ack)
			}
			return
		}
		if len(pending) == 0 {
			oldest = s.at
		}
		pending = append(pending, s.b...)
		if pendTID.IsZero() {
			pendTID = s.tid
		}
		if s.ack != nil {
			acks = append(acks, s.ack)
		}
	}
	for {
		select {
		case s := <-h.in:
			add(s)
			switch {
			case len(pending) >= h.opt.MaxBatch:
				flush(flushFull)
			case len(h.in) == 0:
				flush(flushDrain)
			case timer == nil && len(pending) > 0:
				// More is queued: keep absorbing, for MaxWait at most.
				timer = time.NewTimer(h.opt.MaxWait)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			flush(flushTimer)
		case <-h.quit:
			// Graceful shutdown: drain whatever Submit managed to
			// enqueue before Close flipped the flag, then exit.
			for {
				select {
				case s := <-h.in:
					add(s)
					if len(pending) >= h.opt.MaxBatch {
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

// apply coalesces one accumulated batch, feeds it to the maintainer,
// publishes the new view, and records the apply in counters, histograms,
// gauges, the trace ring, and (when a recorder is configured) the flight
// recording: a root "batch" span containing "coalesce", "apply" — inside
// which the maintainer's own h/resume spans nest — and "publish", plus a
// "queue_wait" span covering the time the oldest merged submission sat
// queued. Called only from loop.
func (h *Host) apply(raw graph.Batch, oldest time.Time, tid trace.TraceID, why flushReason) {
	h.met.flushes[why].Inc()
	var root, sub trace.Span
	if h.rec != nil {
		qw := trace.Event{
			Name: "queue_wait", Cat: "serve", Phase: trace.PhaseComplete,
			Track: h.track, TS: h.rec.At(oldest), Dur: h.rec.Now() - h.rec.At(oldest),
			Trace: tid,
		}
		h.rec.Emit(qw)
		root = h.rec.Begin("batch", "serve", h.track)
		root.SetTrace(tid)
		if h.engTracer != nil {
			h.engTracer.SetTraceID(tid)
		}
		sub = h.rec.Begin("coalesce", "serve", h.track)
	}
	net := raw.Net(h.dir)
	if h.rec != nil {
		sub.Arg("raw", int64(len(raw)))
		sub.Arg("net", int64(len(net)))
		sub.End()
		sub = h.rec.Begin("apply", "serve", h.track)
		sub.SetTrace(tid)
	}
	t0 := time.Now()
	queueWait := t0.Sub(oldest).Nanoseconds()
	if h.quarantined {
		if h.rec != nil {
			sub.Arg("quarantined", 1)
			sub.End()
			root.End()
		}
		h.absorbPanic(raw, nil)
		return
	}
	res, data, pval, ok := h.runMaintainer(net)
	lat := time.Since(t0).Nanoseconds()
	if !ok {
		if h.rec != nil {
			sub.Arg("panicked", 1)
			sub.End()
			root.End()
		}
		h.absorbPanic(raw, pval)
		return
	}
	if h.rec != nil {
		sub.Arg("affected", int64(res.Affected))
		sub.End()
		sub = h.rec.Begin("publish", "serve", h.track)
	}
	pub := publishDelta(h.view.Load().Data, data)

	h.statMu.Lock()
	h.stats.BatchesApplied++
	h.stats.UpdatesApplied += uint64(len(raw))
	h.stats.UpdatesCoalesced += uint64(len(raw) - len(net))
	h.stats.AffectedTotal += int64(res.Affected)
	h.stats.Epoch = h.stats.UpdatesApplied
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
	epoch, batches := h.stats.Epoch, h.stats.BatchesApplied
	h.statMu.Unlock()

	h.view.Store(&View{Algo: h.algo, Epoch: epoch, Batches: batches, Data: data})

	if h.rec != nil {
		sub.Arg("epoch", int64(epoch))
		sub.Arg("pages_copied", int64(pub.pages))
		sub.End()
		root.Arg("raw", int64(len(raw)))
		root.Arg("net", int64(len(net)))
		root.Arg("affected", int64(res.Affected))
		root.Arg("epoch", int64(epoch))
		root.Arg("queue_wait_nanos", queueWait)
		root.End()
	}

	m := &h.met
	m.updatesApplied.Add(float64(len(raw)))
	m.updatesCoal.Add(float64(len(raw) - len(net)))
	m.batchesApplied.Inc()
	m.affectedTotal.Add(float64(res.Affected))
	m.applyLatency.Observe(float64(lat) / 1e9)
	m.batchSize.Observe(float64(len(raw)))
	m.queueWait.Observe(float64(queueWait) / 1e9)
	m.coalesceRatio.Observe(float64(len(raw)-len(net)) / float64(len(raw)))
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
	if fv, ok := h.m.(flatViewer); ok {
		f := fv.Flat()
		c := f.Compactions()
		if c < h.flatSeen {
			h.flatSeen = 0 // a heal rebuilt the maintainer with a fresh view
		}
		m.flatCompactions.Add(float64(c - h.flatSeen))
		h.flatSeen = c
		m.flatOverlay.Set(f.OverlayRatio())
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
// batch arriving while the host is quarantined (pval nil). The raw
// updates are counted as consumed — the maintainer's graph is in an
// unknown state with respect to them, and queue accounting must not
// wedge — the last good view is republished with the degraded flag so
// readers get stale answers instead of 500s, and then the host heals by
// batch recompute over the current graph. A panic during the heal itself
// quarantines the host permanently: it keeps draining, acknowledging,
// and serving the stale view, but never touches the maintainer again.
// Called only from the apply loop.
func (h *Host) absorbPanic(raw graph.Batch, pval any) {
	panicked := pval != nil
	if panicked {
		h.met.panics.Inc()
		if h.rec != nil {
			ev := trace.Event{
				Name: "panic", Cat: "serve", Phase: trace.PhaseInstant,
				Track: h.track, TS: h.rec.Now(),
			}
			ev.AddArg("value", int64(len(fmt.Sprint(pval)))) // length only: arg values are integers
			h.rec.Emit(ev)
		}
	}

	h.statMu.Lock()
	h.stats.UpdatesApplied += uint64(len(raw))
	h.stats.BatchesApplied++
	if panicked {
		h.stats.Panics++
	}
	h.stats.Degraded = true
	h.statMu.Unlock()
	h.met.updatesApplied.Add(float64(len(raw)))
	h.met.batchesApplied.Inc()
	h.publishDegraded()

	if h.quarantined {
		return
	}
	// Heal: batch recompute over the graph as the panic left it. The
	// recompute result reflects every update that reached the graph —
	// including any partially staged batch — so the healed view is the
	// correct answer for the current graph state.
	data, healed := h.rebuild("heal")
	if !healed {
		return
	}

	h.statMu.Lock()
	h.stats.Heals++
	h.stats.Degraded = false
	h.stats.Epoch = h.stats.UpdatesApplied
	epoch, batches := h.stats.Epoch, h.stats.BatchesApplied
	h.statMu.Unlock()
	h.met.heals.Inc()
	h.met.degraded.Set(0)

	h.view.Store(&View{Algo: h.algo, Epoch: epoch, Batches: batches, Data: data})
}

// publishDegraded republishes the last good data under the degraded flag.
// The epoch is the stale view's: it honestly describes which prefix the
// data answers for. Called only from the apply loop, which is the only
// writer of the batch count it reads.
func (h *Host) publishDegraded() {
	batches := h.stats.BatchesApplied
	h.met.degraded.Set(1)
	old := h.view.Load()
	h.view.Store(&View{Algo: h.algo, Epoch: old.Epoch, Batches: batches, Degraded: true, Data: old.Data})
}

// rebuild discards the maintained answer for a batch rerun over the
// current graph and returns the fresh snapshot, in a span called name (the
// heal after a panic, the verification at a promotion). Recompute may
// have rebuilt the inner maintainer, so the engine tracer is re-installed
// under the same fence; a panic anywhere quarantines the host. Called only
// from the apply loop.
func (h *Host) rebuild(name string) (data any, ok bool) {
	var span trace.Span
	if h.rec != nil {
		span = h.rec.Begin(name, "serve", h.track)
	}
	defer func() {
		if recover() != nil {
			data, ok = nil, false
		}
		h.quarantined = !ok
		if h.rec != nil {
			span.Arg("ok", boolArg(ok))
			span.End()
		}
	}()
	h.m.Recompute()
	if h.engTracer != nil {
		if ts, tok := h.m.(tracerSetter); tok {
			ts.SetTracer(h.engTracer)
		}
	}
	return h.m.Snapshot(), true
}

// Verify is VerifyRecovered for a maintainer that is already hosted (a
// warm replica at promotion): from inside the apply loop, after every
// accepted submission, it recomputes the answer over the maintainer's
// graph, publishes it at the same epoch and reports whether it differed —
// which the design treats as a bug. An error means the recompute panicked
// and the host is quarantined on its last good view.
func (h *Host) Verify() (diverged bool, err error) {
	err = h.WithState(func(Serveable) error {
		if h.quarantined {
			return fmt.Errorf("serve: %s is quarantined", h.algo)
		}
		data, ok := h.rebuild("verify")
		if !ok {
			h.statMu.Lock()
			h.stats.Degraded = true
			h.statMu.Unlock()
			h.publishDegraded()
			return fmt.Errorf("serve: %s: recompute panicked", h.algo)
		}
		old := h.view.Load()
		diverged = !reflect.DeepEqual(old.Data, data)
		h.view.Store(&View{Algo: h.algo, Epoch: old.Epoch, Batches: old.Batches, Data: data})
		return nil
	})
	return diverged, err
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
