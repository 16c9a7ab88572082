package serve

import (
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/obs"
)

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
	// QueueWaitNanos is how long the oldest merged submission waited, in
	// the queue and behind the classes applied first, for this maintainer.
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

// Stats are a host's serving counters, exposed on /stats. The stream
// fields — UpdatesReceived, UpdatesApplied, UpdatesCoalesced,
// BatchesApplied, QueueDepth and UptimeSeconds — are the service's one
// account of the stream, the same for every host; the rest are the
// class's own.
type Stats struct {
	Algo string `json:"algo"`
	// Epoch mirrors the published view's epoch.
	Epoch uint64 `json:"epoch"`
	// UpdatesReceived is the stream position of the last accepted raw
	// unit update: it continues across a restart.
	UpdatesReceived uint64 `json:"updates_received"`
	// UpdatesApplied is the stream position the apply loop has reached,
	// in raw unit updates: it continues across a restart.
	UpdatesApplied uint64 `json:"updates_applied"`
	// UpdatesCoalesced counts the updates this process's batching
	// cancelled before reaching the maintainers: raw minus net, summed
	// over batches. Nonzero whenever the stream contained churn inside
	// one batching window.
	UpdatesCoalesced uint64 `json:"updates_coalesced"`
	// BatchesApplied is the stream position in batches: it continues
	// across a restart.
	BatchesApplied uint64 `json:"batches_applied"`
	// AffectedTotal sums the maintainer's per-Apply affected-area
	// measure (|H⁰| or equivalent).
	AffectedTotal int64 `json:"affected_total"`
	// QueueDepth is the number of received-but-not-yet-applied updates.
	QueueDepth uint64 `json:"queue_depth"`
	// Apply latency of this process's maintainer applies, nanoseconds.
	LastApplyNanos  int64 `json:"last_apply_nanos"`
	MaxApplyNanos   int64 `json:"max_apply_nanos"`
	TotalApplyNanos int64 `json:"total_apply_nanos"`
	// MeanApplyNanos is TotalApplyNanos over the applies behind it,
	// precomputed so clients don't have to divide raw totals.
	MeanApplyNanos int64 `json:"mean_apply_nanos"`
	// applies counts this process's maintainer applies, MeanApplyNanos's
	// divisor.
	applies int64
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
	// UptimeSeconds is the time since the service was created.
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

// offenderRing is the capacity of the top-K worst-boundedness ring behind
// GET /debug/offenders.
const offenderRing = 32

// hostMetrics are a host's registry handles, resolved once at
// construction so the apply loop only touches lock-free atomics.
type hostMetrics struct {
	affectedTotal  *obs.Counter
	hSecondsTotal  *obs.Counter
	resumeSeconds  *obs.Counter
	inspectedTotal *obs.Counter

	applyLatency *obs.Histogram
	queueWait    *obs.Histogram

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

	pagesCopied    *obs.Counter
	pagesEncoded   *obs.Counter
	entriesSpliced *obs.Counter
	viewPages      *obs.Gauge
}

func newHostMetrics(r *obs.Registry, algo string) hostMetrics {
	l := obs.L("algo", algo)
	return hostMetrics{
		affectedTotal:  r.Counter("incgraph_affected_total", "Sum of per-apply affected-area measures (|AFF|).", l),
		hSecondsTotal:  r.Counter("incgraph_fixpoint_h_seconds_total", "Wall seconds spent in the initial scope function h.", l),
		resumeSeconds:  r.Counter("incgraph_fixpoint_resume_seconds_total", "Wall seconds spent in the resumed step function.", l),
		inspectedTotal: r.Counter("incgraph_fixpoint_inspected_total", "Status-variable inspections (reads+updates+pops) by incremental runs.", l),
		applyLatency:   r.Histogram("incgraph_apply_latency_seconds", "Wall time of one maintainer Apply call.", l),
		queueWait:      r.Histogram("incgraph_queue_wait_seconds", "Wait of the oldest submission merged into each batch until this class's Apply: queued, then behind the classes applied first.", l),
		affRatio:       r.Gauge("incgraph_aff_per_delta_ratio", "Last apply's |AFF|/|ΔG| — the observed relative-boundedness ratio.", l),
		inspectedPer:   r.Gauge("incgraph_inspected_per_update", "Last apply's fixpoint inspections per net update.", l),
		scopeSize:      r.Gauge("incgraph_fixpoint_scope_size", "Last apply's initial scope size |H⁰|.", l),
		panics:         r.Counter("incgraph_apply_panics_total", "Maintainer panics recovered by the apply loop.", l),
		heals:          r.Counter("incgraph_heals_total", "Successful batch-recompute heals after a recovered panic.", l),
		degraded:       r.Gauge("incgraph_degraded", "1 while the host serves a stale snapshot after a panic.", l),
		workTotal:      r.Counter("incgraph_work_total", "Ledger work units (touched+|AFF|+‖AFF‖) charged by applies.", l),
		changedTotal:   r.Counter("incgraph_changed_total", "Variables whose value changed across applies (|CHANGED|).", l),
		boundedRatio:   r.Histogram("incgraph_bounded_ratio", "Per-apply work/|ΔG| — the relative-boundedness quotient distribution.", l),
		recomputeRatio: r.Histogram("incgraph_recompute_ratio", "Per-apply work/recompute-estimate — fraction of a from-scratch run.", l),
		roundsHist:     r.Histogram("incgraph_rounds_to_fixpoint", "Per-apply propagation rounds until the resumed drain reached fixpoint.", l),
		boundedLast:    r.Gauge("incgraph_bounded_ratio_last", "Most recent apply's work/|ΔG| boundedness quotient.", l),
		offenderCount:  r.Gauge("incgraph_offender_count", "Entries retained in the top-K worst-boundedness ring.", l),
		offenderWorst:  r.Gauge("incgraph_offender_worst_ratio", "Highest boundedness quotient ever retained by the offender ring.", l),
		offenderMin:    r.Gauge("incgraph_offender_min_ratio", "Lowest retained offender quotient — the ring's admission threshold.", l),
		pagesCopied:    r.Counter("incgraph_view_pages_copied_total", "View pages copied by publication (the rest are shared with the previous epoch).", l),
		pagesEncoded:   r.Counter("incgraph_view_pages_encoded_total", "View pages GET /query encoded from scratch (cached pages, and pages born cached from the page they replaced, are not).", l),
		entriesSpliced: r.Counter("incgraph_view_entries_spliced_total", "Changed entries publication re-encoded into the cached bytes a replaced page inherited.", l),
		viewPages:      r.Gauge("incgraph_view_pages", "Pages in the published view's vectors.", l),
	}
}

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
	ratios := h.met.boundedRatio.Snapshot()
	rep.RatioP50 = ratios.Quantile(0.5)
	rep.RatioP95 = ratios.Quantile(0.95)
	rep.RatioMax = ratios.Quantile(1)
	rep.RoundsP95 = h.met.roundsHist.Snapshot().Quantile(0.95)
	if audit.Delta > 0 {
		rep.PublishRatio = float64(entries) / float64(audit.Delta)
	}
	return rep
}

// Stats returns a copy of the serving counters, with the stream fields
// taken from the service's account and the derived fields (epoch, mean
// latency, latency quantiles, uptime) filled in.
func (h *Host) Stats() Stats {
	h.statMu.Lock()
	s := h.stats
	h.statMu.Unlock()
	at := h.svc.stream.pos()
	s.UpdatesReceived, s.UpdatesApplied, s.BatchesApplied = at.recv, at.epoch, at.batches
	s.UpdatesCoalesced, s.QueueDepth = at.coalesced, at.recv-at.epoch
	s.Epoch = h.View().Epoch
	if s.applies > 0 {
		s.MeanApplyNanos = s.TotalApplyNanos / s.applies
	}
	// Quantiles come from the same histogram /metrics exposes, all three
	// off one snapshot; an empty one answers 0, never NaN.
	lat := h.met.applyLatency.Snapshot()
	s.ApplyP50Nanos = int64(lat.Quantile(0.5) * 1e9)
	s.ApplyP95Nanos = int64(lat.Quantile(0.95) * 1e9)
	s.ApplyP99Nanos = int64(lat.Quantile(0.99) * 1e9)
	s.PagesEncoded = uint64(h.met.pagesEncoded.Value())
	s.UptimeSeconds = time.Since(h.svc.start).Seconds()
	return s
}
