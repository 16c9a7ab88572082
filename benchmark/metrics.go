//go:build linux

package main

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a client of the system sees, measured against
// real processes with tracing off. failed ops are not a metric here: the
// result line's attempted/failed carry them, and any failure or oracle
// mismatch makes the whole run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// tails are printed beside the end-to-end metrics, with their sample
// counts, but are not in BENCHMARK.json and carry no bound: on the shared
// sandbox host the p95 of a 1 ms op spread by 29% of its median over ten
// runs, more than the largest bound a metric may have. Their traced
// counterparts (trace.*_p95_ms) are per-layer metrics.
var tails = []metricDef{
	{"update_p95_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
}

var allAlgos = []string{"sssp", "cc", "sim", "dfs", "lcc", "bc"}

// budgetLayers are the rows of the latency budget table: the modules the
// wrappers can span, plus the client side of the loopback connection.
// graph has no row: its functions run inside engine and serve spans, and
// the graph.* metrics time them by direct calls instead.
var budgetLayers = []string{"engine", "serve", "wal", "shard", "client"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (wal.* on trickle and burst, shard.* outside
// cluster, engine.<algo>.* for classes not hosted).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"graph.read_graph_s", "s", "lower"},
		{"graph.read_batch_us", "us", "lower"},
		{"graph.net_us", "us", "lower"},
		{"graph.flat_stage_us", "us", "lower"},
		{"graph.flat_compact_ms", "ms", "lower"},
		{"graph.flat_compactions", "count", "lower"},
		{"graph.flat_overlay_ratio", "ratio", "lower"},
		{"graph.flat_scan_ns_per_edge", "ns", "lower"},
	}
	for _, a := range allAlgos {
		defs = append(defs,
			metricDef{"engine." + a + ".apply_ms", "ms", "lower"},
			metricDef{"engine." + a + ".work_per_delta", "ratio", "lower"},
			metricDef{"engine." + a + ".recompute_ms", "ms", "lower"},
		)
	}
	defs = append(defs, metricDef{"engine.h_share", "ratio", "lower"})
	for _, a := range allAlgos {
		defs = append(defs, metricDef{"serve." + a + ".snapshot_ms", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"serve.host_overhead_ms", "ms", "lower"},
		metricDef{"serve.coalesced_ratio", "ratio", "higher"},
		metricDef{"serve.view_encode_ms", "ms", "lower"},
		metricDef{"serve.view_bytes", "B", "lower"},
		metricDef{"serve.http_update_ms", "ms", "lower"},
		metricDef{"serve.http_query_ms", "ms", "lower"},
		metricDef{"serve.persist_state_ms", "ms", "lower"},
		metricDef{"wal.append_us", "us", "lower"},
		metricDef{"wal.fsyncs_per_append", "ratio", "lower"},
		metricDef{"wal.bytes_per_update", "B", "lower"},
		metricDef{"wal.checkpoint_ms", "ms", "lower"},
		metricDef{"wal.checkpoint_bytes", "B", "lower"},
		metricDef{"wal.replay_ms", "ms", "lower"},
		metricDef{"wal.replayed_records", "count", "lower"},
		metricDef{"daemon.cold_start_s", "s", "lower"},
		metricDef{"shard.split_us", "us", "lower"},
		metricDef{"shard.cut_ratio", "ratio", "lower"},
		metricDef{"shard.update_fanout_ms", "ms", "lower"},
		metricDef{"shard.shard_update_ms", "ms", "lower"},
		metricDef{"shard.gather_ms", "ms", "lower"},
		metricDef{"shard.eval_ms", "ms", "lower"},
		metricDef{"shard.exchange_rounds", "count", "lower"},
		metricDef{"shard.merge_ms", "ms", "lower"},
		metricDef{"shard.bytes_moved_per_query", "B", "lower"},
		metricDef{"trace.update_p50_ms", "ms", "lower"},
		metricDef{"trace.query_p50_ms", "ms", "lower"},
		metricDef{"trace.update_p95_ms", "ms", "lower"},
		metricDef{"trace.query_p95_ms", "ms", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
		metricDef{"trace.unattributed_ms", "ms", "lower"},
	)
	for _, op := range []string{"update", "query"} {
		for _, l := range budgetLayers {
			defs = append(defs, metricDef{"budget." + op + "." + l + "_ms", "ms", "lower"})
		}
	}
	return defs
}
