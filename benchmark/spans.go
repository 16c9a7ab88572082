//go:build linux

package main

import (
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. name is "<layer>.<what>[.<algo>][@s<shard>]"; parent names
// the span kind that caused it; kind and op say which client operation it
// belongs to.
type span struct {
	name   string
	parent string // "" for the client-side root of an op
	kind   string // "update", "query", or "" outside any op (recovery)
	op     int64
	start  int64 // nanoseconds since the recorder's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// layer is the module a span's time is charged to.
func (s span) layer() string { return layerOf(s.name) }

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// baseName strips the shard suffix, so per-shard spans aggregate.
func baseName(name string) string {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. The load has at most
// one update op and one query op in flight, so the op a server-side span
// belongs to is the current op of its kind.
type recorder struct {
	epoch time.Time
	on    atomic.Bool // off during the untraced comparison phase
	curOp [2]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func kindIndex(kind string) int {
	if kind == "query" {
		return 1
	}
	return 0
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin starts a span; the returned func ends and stores it. With the
// recorder off both are no-ops.
func (r *recorder) begin(name, parent, kind string) func() {
	if !r.on.Load() {
		return func() {}
	}
	s := span{name: name, parent: parent, kind: kind, start: r.now()}
	if kind != "" {
		s.op = r.curOp[kindIndex(kind)].Load()
	}
	return func() {
		s.end = r.now()
		r.add(s)
	}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// beginOp implements opSpans: the client-side root span of one op.
func (r *recorder) beginOp(kind string, id int64) func() {
	r.curOp[kindIndex(kind)].Store(id)
	return r.begin("client."+kind, "", kind)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// Perfetto or chrome://tracing) through the repository's own recorder: one
// complete event per span, one named track per span kind — the track's name
// carries the parent — with the op id in args.
func writeChrome(w io.Writer, epoch time.Time, spans []span) error {
	rec := trace.NewRecorderAt(epoch, max(len(spans), 1))
	rec.SetProcess("benchmark")
	tracks := map[string]int32{}
	for _, s := range spans {
		tid, ok := tracks[s.name]
		if !ok {
			label := s.name
			if s.parent != "" {
				label += " < " + s.parent
			}
			tid = rec.Track(label)
			tracks[s.name] = tid
		}
		ev := trace.Event{Name: s.name, Cat: s.layer(), Phase: trace.PhaseComplete, Track: tid, TS: s.start, Dur: s.dur()}
		ev.AddArg("op", s.op)
		rec.Emit(ev)
	}
	return rec.WriteTraceEvents(w)
}

// opBudget is one op's latency split by layer: every instant between the
// client sending the request and reading the reply is charged to the
// deepest span active at that instant (the innermost call the op was
// waiting in), so the layers sum to the op's latency exactly.
type opBudget struct {
	total  int64
	layers map[string]int64
}

// budgets splits every op of the given kind. Spans are matched to their
// op by (kind, op id); depth is the length of the parent-name chain.
func budgets(spans []span, kind string) []opBudget {
	parentOf := map[string]string{}
	byOp := map[int64][]span{}
	for _, s := range spans {
		if s.kind != kind {
			continue
		}
		parentOf[s.name] = s.parent
		byOp[s.op] = append(byOp[s.op], s)
	}
	depth := func(name string) int {
		d := 0
		for p := parentOf[name]; p != "" && d < 16; p = parentOf[p] {
			d++
		}
		return d
	}
	ids := make([]int64, 0, len(byOp))
	for id := range byOp {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []opBudget
	for _, id := range ids {
		ss := byOp[id]
		var root *span
		for i := range ss {
			if ss[i].parent == "" {
				root = &ss[i]
			}
		}
		if root == nil {
			continue // server-side spans of an op cut off by the end of the phase
		}
		// Clip to the root and collect the boundaries of the elementary
		// intervals.
		type clipped struct {
			span
			depth int
		}
		var cs []clipped
		cuts := []int64{root.start, root.end}
		for _, s := range ss {
			if s.start < root.start {
				s.start = root.start
			}
			if s.end > root.end {
				s.end = root.end
			}
			if s.end <= s.start {
				continue
			}
			cs = append(cs, clipped{s, depth(s.name)})
			cuts = append(cuts, s.start, s.end)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		b := opBudget{total: root.dur(), layers: map[string]int64{}}
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if hi == lo {
				continue
			}
			var pick *clipped
			for j := range cs {
				c := &cs[j]
				if c.start <= lo && c.end >= hi &&
					(pick == nil || c.depth > pick.depth || c.depth == pick.depth && c.start > pick.start) {
					pick = c
				}
			}
			if pick != nil {
				b.layers[pick.layer()] += hi - lo
			}
		}
		out = append(out, b)
	}
	return out
}

// medianBand averages the per-layer split over the ops whose latency lies
// between the 40th and 60th percentile — the ops the median describes —
// and returns it in milliseconds with the median itself.
func medianBand(bs []opBudget) (layersMS map[string]float64, medianMS float64, n int) {
	layersMS = map[string]float64{}
	if len(bs) == 0 {
		return layersMS, 0, 0
	}
	totals := make([]float64, len(bs))
	for i, b := range bs {
		totals[i] = float64(b.total)
	}
	lo, hi := percentile(totals, 0.40), percentile(totals, 0.60)
	for _, b := range bs {
		if t := float64(b.total); t >= lo && t <= hi {
			n++
			for l, ns := range b.layers {
				layersMS[l] += float64(ns) / 1e6
			}
		}
	}
	for l := range layersMS {
		layersMS[l] /= float64(n)
	}
	return layersMS, median(totals) / 1e6, n
}

// durationsMS returns the durations, in milliseconds, of the spans whose
// base name (shard suffix stripped) is name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if baseName(s.name) == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
