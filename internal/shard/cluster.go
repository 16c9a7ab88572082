package shard

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"incgraph/internal/obs"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
)

// errBadTraceFilter rejects an unparseable ?trace= filter.
var errBadTraceFilter = errors.New("shard: trace filter must be a 32-hex trace id or a traceparent value")

// Cluster observability: the router is the one process that knows every
// member, so it is where per-process telemetry becomes a cluster story.
// Each member keeps its own flight recorder and metrics registry; the
// endpoints here scrape them on demand — no background collectors, no
// retained copies — and merge: trace dumps into one Perfetto timeline,
// registry snapshots into one federated exposition with identity labels
// and cluster rollups.

// member is one scrapeable process in the cluster: the active primary of
// each slot plus any warm replica.
type member struct {
	// Name is the merged-timeline process name ("shard-0", "replica-0").
	Name string `json:"name"`
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Shard is the slot the member serves.
	Shard int `json:"shard"`
	// Addr is the member's base URL.
	Addr string `json:"addr"`
}

// members enumerates the cluster's scrapeable processes from the routing
// table: slot i's active address is "shard-i"; the non-active member, if
// configured, is "replica-i". After a promotion the names follow the
// roles, not the original process identities — "shard-i" is always who
// serves reads and writes right now.
func (rt *Router) members() []member {
	var ms []member
	for _, s := range rt.table.Snapshot() {
		if s.Active != "" {
			ms = append(ms, member{
				Name:  "shard-" + strconv.Itoa(s.Shard),
				Role:  "primary",
				Shard: s.Shard,
				Addr:  s.Active,
			})
		}
		if s.Replica != "" && s.Replica != s.Active {
			ms = append(ms, member{
				Name:  "replica-" + strconv.Itoa(s.Shard),
				Role:  "replica",
				Shard: s.Shard,
				Addr:  s.Replica,
			})
		}
	}
	return ms
}

// memberScrapeTimeout bounds each member scrape during a cluster
// aggregation so one wedged process delays the answer, not the dead
// members after it.
const memberScrapeTimeout = 5 * time.Second

// scrapeCtx derives a per-member deadline from the request context.
func scrapeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), memberScrapeTimeout)
}

// handleClusterTrace serves GET /debug/cluster/trace: the router's own
// recorder plus every reachable member's /debug/trace dump, merged into
// one Chrome trace_event document with one pid per process (router is
// always pid 1) and wall-clock-rebased timestamps. ?trace=<32 hex>
// keeps only the spans of one distributed request; ?n= caps how many
// events each member contributes (obs.QueryN). Unreachable members are skipped — a
// partial timeline from the live cluster beats a 502.
func (rt *Router) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	var filter trace.TraceID
	if q := r.URL.Query().Get("trace"); q != "" {
		tid, ok := trace.ParseTraceID(q)
		if !ok {
			if tid, ok = trace.ParseTraceparent(q); !ok {
				writeError(w, http.StatusBadRequest,
					errBadTraceFilter)
				return
			}
		}
		filter = tid
	}
	n, err := obs.QueryN(r, math.MaxInt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	var self bytes.Buffer
	if err := rt.rec.WriteTraceEventsN(&self, n); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	dumps := []trace.ProcessDump{{Process: "router", Data: self.Bytes()}}
	for _, m := range rt.members() {
		ctx, cancel := scrapeCtx(r)
		var data []byte
		err := rt.retryScrape(ctx, func(ctx context.Context) error {
			var e error
			data, e = rt.clientFor(m.Addr).TraceDump(ctx, n)
			return e
		})
		cancel()
		if err != nil {
			continue
		}
		dumps = append(dumps, trace.ProcessDump{Process: m.Name, Data: data})
	}

	var out bytes.Buffer
	if err := trace.MergeTraceEvents(&out, dumps, filter); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.Bytes())
}

// handleClusterMetrics serves GET /cluster/metrics: every member's
// registry snapshot federated under shard/role identity labels, plus the
// router's own metrics (role="router") and cluster rollups:
//
//	incrouter_cluster_apply_latency_seconds   exact bucket-merged summary
//	incrouter_cluster_shed_total              sheds across members + router
//	incrouter_cluster_epoch_skew              max-min published view epoch
//	incrouter_cluster_replica_lag_seconds     worst follower seconds-behind
//	incrouter_cluster_members                 reachable/total member gauges
//	incrouter_cluster_bounded_ratio           bucket-merged boundedness quotients
//	incrouter_cluster_bounded_ratio_worst     worst shard's last-apply quotient
func (rt *Router) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	fed := obs.NewFederation()
	fed.Ingest(rt.reg.Snapshot(), obs.L("role", "router"))
	ms := rt.members()
	reachable := 0
	for _, m := range ms {
		ctx, cancel := scrapeCtx(r)
		var fams []obs.FamilySnapshot
		err := rt.retryScrape(ctx, func(ctx context.Context) error {
			var e error
			fams, e = rt.clientFor(m.Addr).MetricsSnapshot(ctx)
			return e
		})
		cancel()
		if err != nil {
			continue
		}
		reachable++
		fed.Ingest(fams, obs.L("shard", strconv.Itoa(m.Shard)), obs.L("role", m.Role))
	}

	// A warm replica hosts its maintainers too and exports the per-host
	// families; it replays what its primary applied, so the work rollups
	// count primaries only — once per batch the cluster accepted.
	primary := obs.L("role", "primary")
	fed.AddHistogram("incrouter_cluster_apply_latency_seconds",
		"Apply latency merged across every shard's histogram buckets.",
		fed.MergedHistogram("incgraph_apply_latency_seconds", primary))
	fed.Add("incrouter_cluster_shed_total",
		"Updates shed anywhere in the cluster (members plus router).",
		"counter",
		fed.SumValues("incgraph_shed_total")+fed.SumValues("incrouter_updates_shed_total"))
	fed.Add("incrouter_cluster_epoch_skew",
		"Spread (max-min) of published view epochs across primaries and replicas.",
		"gauge", epochSkew(fed.Values("incgraph_view_epoch")))
	fed.Add("incrouter_cluster_replica_lag_seconds",
		"Worst-case follower seconds-behind across replicas.",
		"gauge", maxValue(fed.Values("incgraph_replica_lag_seconds")))
	// The boundedness audit rollup: every shard's per-apply quotient
	// distribution merged bucket-exact, plus the worst shard's most recent
	// quotient — the single number a cluster dashboard alerts on when one
	// shard's incremental work stops being a function of |ΔG| and |AFF|.
	fed.AddHistogram("incrouter_cluster_bounded_ratio",
		"Per-apply work/|ΔG| quotients merged across every shard's histogram buckets.",
		fed.MergedHistogram("incgraph_bounded_ratio", primary))
	fed.Add("incrouter_cluster_bounded_ratio_worst",
		"Worst shard's most recent boundedness quotient (max over last-apply gauges).",
		"gauge", maxValue(fed.Values("incgraph_bounded_ratio_last", primary)))
	fed.Add("incrouter_cluster_members",
		"Scrapeable cluster members by reachability.",
		"gauge", float64(reachable), obs.L("state", "reachable"))
	fed.Add("incrouter_cluster_members",
		"Scrapeable cluster members by reachability.",
		"gauge", float64(len(ms)), obs.L("state", "known"))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fed.WritePrometheus(w)
}

// epochSkew reduces view-epoch series to max-min, the number a dashboard
// alerts on: how far the slowest member's published view trails the
// fastest. A warm replica hosts its maintainers and reports the same
// family under role="replica"; it counts here — a lagging replica *is*
// epoch skew from a reader's point of view: its view is what a hedged or
// stale read returns.
func epochSkew(series []obs.SeriesSnapshot) float64 {
	if len(series) == 0 {
		return 0
	}
	min, max := series[0].Value, series[0].Value
	for _, s := range series[1:] {
		if s.Value < min {
			min = s.Value
		}
		if s.Value > max {
			max = s.Value
		}
	}
	return max - min
}

// maxValue returns the largest value in the series (0 when empty).
func maxValue(series []obs.SeriesSnapshot) float64 {
	var max float64
	for _, s := range series {
		if s.Value > max {
			max = s.Value
		}
	}
	return max
}

// ClusterOffender is one row of the merged /cluster/offenders answer: a
// member's retained worst-boundedness apply, stamped with where it ran so
// the trace ID can be chased to the right process's flight recording.
type ClusterOffender struct {
	serve.Offender
	// Shard is the slot whose member reported the offender.
	Shard int `json:"shard"`
	// Member is the reporting process ("shard-0", "replica-0").
	Member string `json:"member"`
}

// clusterOffenderCap bounds /cluster/offenders responses regardless of
// member count and ring sizes; ?n= can only lower it.
const clusterOffenderCap = 256

// handleClusterOffenders serves GET /cluster/offenders: every reachable
// member's /debug/offenders dump merged into one cluster-wide top-K by
// boundedness quotient, worst first. ?algo= keeps one query class, ?n=
// caps the merged size (obs.QueryN: absent, the cap). Unreachable members are skipped and
// reported in the scrape counts — a partial answer from the live cluster
// beats a 502.
func (rt *Router) handleClusterOffenders(w http.ResponseWriter, r *http.Request) {
	algoFilter := r.URL.Query().Get("algo")
	n, err := obs.QueryN(r, clusterOffenderCap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	top := obs.NewTopK[ClusterOffender](n)
	ms := rt.members()
	reachable := 0
	for _, m := range ms {
		ctx, cancel := scrapeCtx(r)
		var offs map[string][]serve.Offender
		err := rt.retryScrape(ctx, func(ctx context.Context) error {
			var e error
			offs, e = rt.clientFor(m.Addr).Offenders(ctx)
			return e
		})
		cancel()
		if err != nil {
			continue
		}
		reachable++
		for algo, list := range offs {
			if algoFilter != "" && algo != algoFilter {
				continue
			}
			for _, o := range list {
				top.Offer(o.BoundedRatio, ClusterOffender{Offender: o, Shard: m.Shard, Member: m.Name})
			}
		}
	}
	offenders := top.Snapshot()
	if offenders == nil {
		offenders = []ClusterOffender{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"offenders":         offenders,
		"members_reachable": reachable,
		"members_known":     len(ms),
	})
}

// memberHealth is one member's row in the /cluster/health answer.
type memberHealth struct {
	member
	// Reachable is whether the scrape succeeded just now.
	Reachable bool `json:"reachable"`
	// Healthy is the routing table's latest probe verdict (primaries).
	Healthy bool `json:"healthy"`
	// Generation counts promotions on the member's slot.
	Generation int `json:"generation"`
	// Epochs are the member's per-algo view epochs (primaries).
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// Replica carries the follower lag document (replicas).
	Replica *FollowerStatus `json:"replica,omitempty"`
}

// handleClusterHealth serves GET /cluster/health: one document answering
// "is the cluster serving, how stale, and who is covering for whom" —
// per-member liveness and epochs, slot generations, the acknowledged
// epoch floor, and whether live views cover it.
func (rt *Router) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	snap := rt.table.Snapshot()
	gen := make(map[int]int, len(snap))
	healthy := make(map[int]bool, len(snap))
	for _, s := range snap {
		gen[s.Shard], healthy[s.Shard] = s.Generation, s.Healthy
	}

	ms := rt.members()
	rows := make([]memberHealth, len(ms))
	live := make(EpochVector, rt.part.Shards())
	allPrimariesUp := true
	for i, m := range ms {
		row := memberHealth{member: m, Generation: gen[m.Shard]}
		ctx, cancel := scrapeCtx(r)
		switch m.Role {
		case "primary":
			row.Healthy = healthy[m.Shard]
			if info, err := rt.clientFor(m.Addr).Info(ctx); err == nil {
				row.Reachable, row.Epochs = true, info.Epochs
				live[m.Shard] = minAlgoEpoch(info.Epochs)
			} else {
				allPrimariesUp = false
			}
		case "replica":
			if st, err := rt.clientFor(m.Addr).ReplicaStatus(ctx); err == nil {
				row.Reachable, row.Replica = true, &st
			}
		}
		cancel()
		rows[i] = row
	}
	floor := rt.Floor()
	writeJSON(w, http.StatusOK, map[string]any{
		"members":     rows,
		"floor":       floor,
		"floor_token": floor.String(),
		"live":        live,
		"live_token":  live.String(),
		"consistent":  allPrimariesUp && live.Covers(floor),
		"events":      rt.events.Len(),
	})
}

// handleClusterEvents serves GET /cluster/events: the supervisor's
// bounded topology-event ring (spawns, probe failures, restarts,
// promotions), newest last. ?n= keeps only the newest n (obs.QueryN).
func (rt *Router) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	n, err := obs.QueryN(r, math.MaxInt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	evs := rt.events.Snapshot()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": evs})
}
