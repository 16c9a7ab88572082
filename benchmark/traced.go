//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/shard"
	"incgraph/internal/wal"
)

// tracedRun replays workload w in-process with spans around every layer
// and returns the per-layer metrics. The measured time is split: a quarter
// with the recorder off, the rest with it on, both against the same
// in-process system, so the ratio of their update medians is the cost of
// tracing itself. End-to-end numbers never come from here.
func (e env) tracedRun(o options, w workload, seed int64) (resultLine, string, error) {
	in := makeInputs(w, seed)
	in.stream.keep = true // the shadow timings replay the same batches
	dir, err := os.MkdirTemp(e.r.workDir, w.name+"-traced-")
	if err != nil {
		return resultLine{}, "", err
	}
	defer os.RemoveAll(dir)
	graphFile := filepath.Join(dir, "graph.txt")
	if err := writeGraphFile(graphFile, in.graph); err != nil {
		return resultLine{}, "", err
	}
	patternFile := ""
	if in.pattern != nil {
		patternFile = filepath.Join(dir, "pattern.txt")
		if err := writeGraphFile(patternFile, in.pattern); err != nil {
			return resultLine{}, "", err
		}
	}

	t := newTracer()
	m := map[string]float64{}
	conn := newConn()
	defer conn.CloseIdleConnections()

	t0 := time.Now()
	sys, err := t.startSystem(w, dir, graphFile, patternFile, w.nodes)
	if err != nil {
		return resultLine{}, "", err
	}
	defer func() { sys.stop() }()
	m["daemon.cold_start_s"] = time.Since(t0).Seconds()
	m["graph.read_graph_s"] = sys.daemons[0].readGraph.Seconds()

	if w.durable {
		// Preload, stop as a crash would, and start again: the second start
		// is the recovery whose replay is timed.
		for i := 0; i < w.preload; i++ {
			if err := postUpdate(e.ctx, conn, sys.base, encodeBatch(in.stream.next(w.perPost))); err != nil {
				return resultLine{}, "", fmt.Errorf("preload POST %d: %w", i, err)
			}
		}
		sys.stop()
		conn.CloseIdleConnections()
		if sys, err = t.startSystem(w, dir, graphFile, patternFile, w.nodes); err != nil {
			return resultLine{}, "", err
		}
		m["wal.replay_ms"] = float64(sys.daemons[0].replay) / 1e6
		m["wal.replayed_records"] = float64(sys.daemons[0].replayed)
		want, err := expectedViews(w.algos, in.stream.mirror, in.pattern)
		if err == nil {
			err = checkViews(e.ctx, conn, sys.base, w.algos, want)
		}
		if err != nil {
			return resultLine{Metrics: map[string]metricValue{}}, "", fmt.Errorf("after recovery: %w", err)
		}
	}

	opt := loadOptions{base: sys.base, algos: w.algos, perPost: w.perPost, readEvery: w.readEvery, readPace: w.readPace,
		seconds: warmupSeconds(o.seconds), maxOps: warmupOps(o.ops)}
	if warm := runLoad(e.ctx, in.stream, opt); warm.failed > 0 {
		return resultLine{}, "", fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	// Untraced quarter, then the traced three quarters.
	opt.seconds, opt.maxOps = o.seconds/4, (o.ops+3)/4
	plain := runLoad(e.ctx, in.stream, opt)
	firstTraced := len(in.stream.log)
	appends0, syncs0 := sys.walStats()
	opt.seconds, opt.maxOps, opt.spans = o.seconds*3/4, o.ops, t.rec
	t.rec.on.Store(true)
	traced := runLoad(e.ctx, in.stream, opt)
	t.rec.on.Store(false)
	appends1, syncs1 := sys.walStats()

	line := resultLine{Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed, Metrics: map[string]metricValue{}}
	var incorrect error
	if line.Failed > 0 {
		incorrect = fmt.Errorf("%d of %d ops failed, first: %v", line.Failed, line.Attempted, firstNonNil(plain.firstErr, traced.firstErr))
	} else {
		want, err := expectedViews(w.algos, in.stream.mirror, in.pattern)
		if err != nil {
			return resultLine{}, "", err
		}
		incorrect = checkViews(e.ctx, conn, sys.base, w.algos, want)
	}
	line.Correct = incorrect == nil

	spans := t.rec.snapshot()
	m["trace.update_p50_ms"] = median(latencies(traced.updates))
	m["trace.query_p50_ms"] = median(latencies(traced.queries))
	m["trace.update_p95_ms"] = percentile(latencies(traced.updates), 0.95)
	m["trace.query_p95_ms"] = percentile(latencies(traced.queries), 0.95)
	if p := median(latencies(plain.updates)); p > 0 {
		m["trace.overhead_ratio"] = m["trace.update_p50_ms"]/p - 1
	}
	t.spanMetrics(m, w, spans)
	if appends1 > appends0 {
		m["wal.fsyncs_per_append"] = float64(syncs1-syncs0) / float64(appends1-appends0)
	}
	if err := sys.directCalls(m, w, dir); err != nil {
		return resultLine{}, "", err
	}
	if err := shadowTimings(m, w, in, firstTraced, sys.part, dir); err != nil {
		return resultLine{}, "", err
	}
	if err := recomputeTimings(m, w, in); err != nil {
		return resultLine{}, "", err
	}
	table := budgetTable(m, w, spans)

	for _, d := range perLayer {
		line.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return resultLine{}, "", err
		}
		if err := writeChrome(f, t.rec.epoch, spans); err != nil {
			f.Close()
			return resultLine{}, "", err
		}
		if err := f.Close(); err != nil {
			return resultLine{}, "", err
		}
	}
	return line, tracedReport(w, line, table, len(traced.updates), len(traced.queries), len(spans), incorrect), nil
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// walStats sums WAL appends and fsyncs over the system's daemons.
func (s *inprocSystem) walStats() (appends, syncs uint64) {
	for _, d := range s.daemons {
		if d.dur != nil {
			a, f := d.dur.Log().Stats()
			appends, syncs = appends+a, syncs+f
		}
	}
	return
}

// spanMetrics derives the per-layer metrics that are read off spans.
func (t *tracer) spanMetrics(m map[string]float64, w workload, spans []span) {
	med := func(name string) float64 { return median(durationsMS(spans, name)) }
	for _, a := range w.algos {
		m["engine."+a+".apply_ms"] = med("engine.apply." + a)
		m["serve."+a+".snapshot_ms"] = med("serve.snapshot." + a)
	}
	t.mu.Lock()
	var h, resume float64
	for a, st := range t.algo {
		if st.delta > 0 {
			m["engine."+a+".work_per_delta"] = float64(st.work) / float64(st.delta)
		}
		h, resume = h+st.hSec, resume+st.resumeSec
	}
	if h+resume > 0 {
		m["engine.h_share"] = h / (h + resume)
	}
	if t.raw > 0 {
		m["serve.coalesced_ratio"] = float64(t.raw-t.netted) / float64(t.raw)
	}
	t.mu.Unlock()

	m["serve.http_update_ms"] = med("serve.http_update")
	var httpQuery, persist []float64
	for _, s := range spans {
		switch b := baseName(s.name); {
		case strings.HasPrefix(b, "serve.http_query."):
			httpQuery = append(httpQuery, float64(s.dur())/1e6)
		case strings.HasPrefix(b, "serve.persist_state."):
			persist = append(persist, float64(s.dur())/1e6)
		}
	}
	m["serve.http_query_ms"] = median(httpQuery)
	m["serve.persist_state_ms"] = median(persist)

	// Host overhead per apply: the host span minus the maintainer calls
	// inside it. Children are matched by (op, algo+shard suffix).
	type key struct {
		op   int64
		name string
	}
	inner := map[key]int64{}
	for _, s := range spans {
		for _, p := range []string{"engine.apply.", "serve.snapshot."} {
			if rest, ok := strings.CutPrefix(s.name, p); ok {
				inner[key{s.op, rest}] += s.dur()
			}
		}
	}
	var overhead []float64
	for _, s := range spans {
		if rest, ok := strings.CutPrefix(s.name, "serve.host."); ok {
			overhead = append(overhead, float64(s.dur()-inner[key{s.op, rest}])/1e6)
		}
	}
	m["serve.host_overhead_ms"] = median(overhead)

	if w.shards == 0 {
		return
	}
	// Router spans and the shard-side spans they caused, per op.
	shardUpdate := map[int64]int64{} // slowest shard handler per update op
	type qkey struct {
		op   int64
		algo string
	}
	lastFetch, lastChild := map[qkey]int64{}, map[qkey]int64{}
	evals, ssspQueries := 0, 0
	for _, s := range spans {
		b := baseName(s.name)
		switch {
		case b == "serve.http_update":
			if s.dur() > shardUpdate[s.op] {
				shardUpdate[s.op] = s.dur()
			}
		case strings.HasPrefix(b, "serve.http_query."):
			k := qkey{s.op, strings.TrimPrefix(b, "serve.http_query.")}
			lastFetch[k] = max(lastFetch[k], s.end)
			lastChild[k] = max(lastChild[k], s.end)
		case b == "shard.eval":
			k := qkey{s.op, "sssp"}
			lastChild[k] = max(lastChild[k], s.end)
			evals++
		}
	}
	var fanout, gather, merge []float64
	for _, s := range spans {
		switch {
		case s.name == "shard.router_update":
			fanout = append(fanout, float64(s.dur()-shardUpdate[s.op])/1e6)
		case strings.HasPrefix(s.name, "shard.router_query."):
			k := qkey{s.op, strings.TrimPrefix(s.name, "shard.router_query.")}
			if k.algo == "sssp" {
				ssspQueries++
			}
			if lf := lastFetch[k]; lf > s.start {
				gather = append(gather, float64(lf-s.start)/1e6)
			}
			if lc := lastChild[k]; lc > s.start && lc < s.end {
				merge = append(merge, float64(s.end-lc)/1e6)
			}
		}
	}
	m["shard.update_fanout_ms"] = median(fanout)
	m["shard.shard_update_ms"] = med("serve.http_update")
	m["shard.gather_ms"] = median(gather)
	m["shard.eval_ms"] = med("shard.eval")
	m["shard.merge_ms"] = median(merge)
	if ssspQueries > 0 {
		// Every exchange round evaluates each shard once.
		m["shard.exchange_rounds"] = float64(evals) / float64(w.shards) / float64(ssspQueries)
		m["shard.bytes_moved_per_query"] = float64(t.shardBytes.Load()) / float64(ssspQueries)
	}
}

// directCalls times what no wrapper reaches, by calling the layer
// directly on the live system after the measured phases: view encoding
// and a full checkpoint.
func (s *inprocSystem) directCalls(m map[string]float64, w workload, dir string) error {
	var encode, size []float64
	for _, h := range s.daemons[0].svc.Hosts() {
		v := h.View()
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			raw, err := json.Marshal(v)
			if err != nil {
				return err
			}
			encode = append(encode, float64(time.Since(t0))/1e6)
			size = append(size, float64(len(raw)))
		}
	}
	m["serve.view_encode_ms"] = median(encode)
	m["serve.view_bytes"] = median(size)

	d := s.daemons[0]
	if d.dur == nil {
		return nil
	}
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := d.dur.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckpt = append(ckpt, float64(time.Since(t0))/1e6)
	}
	m["wal.checkpoint_ms"] = median(ckpt)
	// The newest checkpoint file in the daemon's data dir.
	dataDir := filepath.Join(dir, "data")
	if w.shards > 0 {
		dataDir = filepath.Join(dir, "shard-0")
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	var newest os.FileInfo
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && strings.Contains(e.Name(), "checkpoint") &&
			(newest == nil || fi.ModTime().After(newest.ModTime())) {
			newest = fi
		}
	}
	if newest != nil {
		m["wal.checkpoint_bytes"] = float64(newest.Size())
	}
	return nil
}

// shadowTimings replays the run's own batches through the graph, wal and
// shard functions that the handlers call internally, on shadow copies, and
// times each call. from is the index of the first batch of the traced
// phase; earlier batches only bring the shadow graph to the same state.
func shadowTimings(m map[string]float64, w workload, in inputs, from int, part shard.Partitioner, dir string) error {
	g := in.graph.Clone()
	flat := graph.NewFlat(g)
	var log *wal.Log
	var walBytes func() (int64, error)
	if w.fsync != "" {
		policy, err := wal.ParseSyncPolicy(w.fsync)
		if err != nil {
			return err
		}
		shadowDir := filepath.Join(dir, "shadow-wal")
		if log, err = wal.Open(shadowDir, wal.Options{Policy: policy}); err != nil {
			return err
		}
		defer log.Close()
		walBytes = func() (int64, error) { return dirSize(shadowDir) }
	}
	const maxAppends = 2000 // bounds the shadow fsyncs to a few seconds
	var read, net, stage, compact, split, appendUS []float64
	var appended int64
	for i, b := range in.stream.log {
		if i < from {
			flat.Stage(g, g.Apply(b.Net(false)))
			flat.MaybeCompact(g)
			continue
		}
		body := encodeBatch(b)
		t0 := time.Now()
		parsed, err := graph.ReadBatch(bytes.NewReader(body))
		read = append(read, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		t0 = time.Now()
		nb := parsed.Net(false)
		net = append(net, float64(time.Since(t0))/1e3)
		applied := g.Apply(nb)
		t0 = time.Now()
		flat.Stage(g, applied)
		stage = append(stage, float64(time.Since(t0))/1e3)
		if flat.NeedCompact() {
			t0 = time.Now()
			flat.Compact(g)
			compact = append(compact, float64(time.Since(t0))/1e6)
		}
		if part != nil {
			t0 = time.Now()
			shard.SplitBatch(part, false, parsed)
			split = append(split, float64(time.Since(t0))/1e3)
		}
		if log != nil && len(appendUS) < maxAppends {
			t0 = time.Now()
			if err := log.Append(wal.Record{Batch: parsed}); err != nil {
				return err
			}
			appendUS = append(appendUS, float64(time.Since(t0))/1e3)
			appended += int64(len(parsed))
		}
	}
	m["graph.read_batch_us"] = median(read)
	m["graph.net_us"] = median(net)
	m["graph.flat_stage_us"] = median(stage)
	m["graph.flat_compact_ms"] = median(compact)
	m["graph.flat_compactions"] = float64(flat.Compactions())
	m["graph.flat_overlay_ratio"] = flat.OverlayRatio()

	// A full adjacency sweep at the overlay the run ended with.
	var edges int64
	var sink int64
	t0 := time.Now()
	for u := 0; u < g.NumNodes(); u++ {
		ts, ws, dead, extra := flat.OutSpans(graph.NodeID(u))
		for i := range ts {
			if dead == nil || !dead[i] {
				sink += ws[i]
				edges++
			}
		}
		for _, e := range extra {
			sink += e.W
			edges++
		}
	}
	if edges > 0 {
		m["graph.flat_scan_ns_per_edge"] = float64(time.Since(t0)) / float64(edges)
	}
	_ = sink

	m["shard.split_us"] = median(split)
	if part != nil {
		var cut, total float64
		g.Edges(func(u, v graph.NodeID, _ int64) {
			total++
			if shard.IsCut(part, u, v) {
				cut++
			}
		})
		m["shard.cut_ratio"] = cut / total
	}
	if log != nil {
		m["wal.append_us"] = median(appendUS)
		if err := log.Sync(); err != nil {
			return err
		}
		n, err := walBytes()
		if err != nil {
			return err
		}
		if appended > 0 {
			m["wal.bytes_per_update"] = float64(n) / float64(appended)
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// recomputeTimings times Serveable.Recompute — the batch algorithm on the
// final graph — for every hosted class: the base of the paper's speedup
// (recompute ÷ incremental apply).
func recomputeTimings(m map[string]float64, w workload, in inputs) error {
	for _, a := range w.algos {
		s, err := newServeable(a, in.stream.mirror.Clone(), in.pattern)
		if err != nil {
			return err
		}
		var ms []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s.Recompute()
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
		m["engine."+a+".recompute_ms"] = median(ms)
	}
	return nil
}

// budgetTable fills the budget.* metrics and renders the latency budget:
// per op kind, the median-band split by layer plus the unattributed
// remainder, summing to the traced median.
func budgetTable(m map[string]float64, w workload, spans []span) string {
	var b strings.Builder
	var unattributed float64
	for _, kind := range []string{"update", "query"} {
		bs := budgets(spans, kind)
		layers, med, n := medianBand(bs)
		fmt.Fprintf(&b, "  %s op: traced median %.4f ms, split over the %d ops between p40 and p60 (of %d)\n", kind, med, n, len(bs))
		var sum float64
		for _, l := range budgetLayers {
			m["budget."+kind+"."+l+"_ms"] = layers[l]
			sum += layers[l]
			if med > 0 {
				fmt.Fprintf(&b, "    %-13s %10.4f ms  %5.1f%%\n", l, layers[l], 100*layers[l]/med)
			}
		}
		rest := med - sum
		unattributed += rest
		fmt.Fprintf(&b, "    %-13s %10.4f ms\n    %-13s %10.4f ms\n", "unattributed", rest, "= total", sum+rest)
	}
	m["trace.unattributed_ms"] = unattributed
	return b.String()
}

func tracedReport(w workload, line resultLine, table string, updateN, queryN, spanN int, incorrect error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (traced, in-process): %s\n", w.name, w.sizes())
	fmt.Fprintf(&b, "  %d spans over %d update ops and %d query ops\n", spanN, updateN, queryN)
	for _, d := range perLayer {
		if v := line.Metrics[d.name]; v.Value != 0 {
			fmt.Fprintf(&b, "  %-32s %14.4f %s\n", d.name, v.Value, d.unit)
		}
	}
	fmt.Fprintf(&b, "  (metrics of layers this workload does not exercise are 0 and not shown)\n")
	fmt.Fprintf(&b, "  latency budget:\n%s", table)
	if incorrect != nil {
		fmt.Fprintf(&b, "  INCORRECT: %v\n", incorrect)
	} else {
		fmt.Fprintf(&b, "  oracle: every final view equals the recompute on the mirror graph\n")
	}
	return b.String()
}
