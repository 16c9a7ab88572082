package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
)

// SeriesSnapshot is one labeled series inside a FamilySnapshot. Counter
// and gauge series carry Value; summary (histogram) series carry Hist.
type SeriesSnapshot struct {
	Labels []Label            `json:"labels,omitempty"`
	Value  float64            `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// FamilySnapshot is a point-in-time copy of one metric family: the name,
// help, exposition kind ("counter", "gauge", or "summary"), and every
// series. It is the wire format of GET /metrics.json — unlike the text
// exposition, histogram series keep their raw buckets, so a federating
// scraper can merge them exactly instead of averaging quantiles.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot copies every family in the registry, sorted by name with
// series sorted by label key. GaugeFunc series are evaluated at snapshot
// time.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		f.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })

		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range ss {
			snap := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case counterKind:
				snap.Value = s.counter.Value()
			case gaugeKind:
				snap.Value = s.gauge.Value()
			case gaugeFuncKind:
				if s.fn != nil {
					snap.Value = s.fn()
				}
			case histogramKind:
				h := s.hist.Snapshot()
				snap.Hist = &h
			}
			fs.Series = append(fs.Series, snap)
		}
		out = append(out, fs)
	}
	return out
}

// WriteJSON writes the registry snapshot as a JSON array of
// FamilySnapshot objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}

// JSONHandler serves the registry snapshot as JSON, for mounting at
// GET /metrics.json. This is the endpoint a federating router scrapes:
// it preserves histogram buckets, which the text exposition flattens
// into unmergeable quantiles.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}

// ParseSnapshot decodes a JSON registry snapshot produced by WriteJSON.
func ParseSnapshot(data []byte) ([]FamilySnapshot, error) {
	var fams []FamilySnapshot
	if err := json.Unmarshal(data, &fams); err != nil {
		return nil, fmt.Errorf("obs: parsing metrics snapshot: %w", err)
	}
	return fams, nil
}

type fedSeries struct {
	labels []Label
	value  float64
	hist   *HistogramSnapshot
}

type fedFamily struct {
	name, help, kind string
	series           map[string]*fedSeries
}

// Federation accumulates family snapshots scraped from many member
// registries into one deduplicated metric set. Ingest attaches extra
// labels (shard="0", role="primary") to every incoming series, so two
// members exposing the same family never collapse into duplicate
// unlabeled series: the family is emitted once, and each member's series
// stay distinct under their added labels. A later series with the exact
// same final label set replaces the earlier one — exposition never emits
// the same (name, labels) sample line twice.
type Federation struct {
	fams    map[string]*fedFamily
	dropped int
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{fams: make(map[string]*fedFamily)}
}

// Dropped reports how many series were discarded because their family
// name was already federated under a different metric kind.
func (f *Federation) Dropped() int { return f.dropped }

func (f *Federation) fam(name, help, kind string) *fedFamily {
	ff, ok := f.fams[name]
	if !ok {
		ff = &fedFamily{name: name, help: help, kind: kind, series: make(map[string]*fedSeries)}
		f.fams[name] = ff
	}
	if ff.help == "" {
		ff.help = help
	}
	return ff
}

// Ingest folds a member's family snapshots into the federation,
// appending extra labels to every series. Conflicting extra labels win
// over same-key labels already on the series (the scraper's identity
// labels are authoritative). Families whose name was already federated
// under a different kind are dropped and counted, not mixed.
func (f *Federation) Ingest(fams []FamilySnapshot, extra ...Label) {
	for _, in := range fams {
		ff := f.fam(in.Name, in.Help, in.Kind)
		if ff.kind != in.Kind {
			f.dropped += len(in.Series)
			continue
		}
		for _, s := range in.Series {
			labels := mergeLabels(s.Labels, extra)
			fs := &fedSeries{labels: labels, value: s.Value}
			if s.Hist != nil {
				h := *s.Hist
				h.Buckets = append([]BucketCount(nil), s.Hist.Buckets...)
				fs.hist = &h
			}
			ff.series[labelKey(labels)] = fs
		}
	}
}

// mergeLabels appends extra labels to base, with extra winning on key
// conflicts.
func mergeLabels(base, extra []Label) []Label {
	out := make([]Label, 0, len(base)+len(extra))
	for _, b := range base {
		skip := false
		for _, e := range extra {
			if e.Key == b.Key {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, b)
		}
	}
	return append(out, extra...)
}

// Add injects a computed scalar rollup series (kind "counter" or
// "gauge"), replacing any existing series with the same labels.
func (f *Federation) Add(name, help, kind string, v float64, labels ...Label) {
	ff := f.fam(name, help, kind)
	if ff.kind != kind {
		f.dropped++
		return
	}
	ls := append([]Label(nil), labels...)
	ff.series[labelKey(ls)] = &fedSeries{labels: ls, value: v}
}

// AddHistogram injects a computed summary rollup series.
func (f *Federation) AddHistogram(name, help string, h HistogramSnapshot, labels ...Label) {
	ff := f.fam(name, help, "summary")
	if ff.kind != "summary" {
		f.dropped++
		return
	}
	ls := append([]Label(nil), labels...)
	ff.series[labelKey(ls)] = &fedSeries{labels: ls, hist: &h}
}

// SumValues sums the scalar values of every series in a family — the
// cluster-total rollup for counters (total sheds, total updates).
func (f *Federation) SumValues(name string) float64 {
	ff := f.fams[name]
	if ff == nil {
		return 0
	}
	var sum float64
	for _, s := range ff.series {
		sum += s.value
	}
	return sum
}

// hasLabels reports whether labels carry every label of match.
func hasLabels(labels, match []Label) bool {
	for _, m := range match {
		if !slices.Contains(labels, m) {
			return false
		}
	}
	return true
}

// Values returns the scalar series of a family that carry every match
// label (all of them when none is given), sorted by label key — the raw
// material for min/max rollups like epoch skew.
func (f *Federation) Values(name string, match ...Label) []SeriesSnapshot {
	ff := f.fams[name]
	if ff == nil {
		return nil
	}
	out := make([]SeriesSnapshot, 0, len(ff.series))
	for _, s := range ff.series {
		if hasLabels(s.labels, match) {
			out = append(out, SeriesSnapshot{Labels: append([]Label(nil), s.labels...), Value: s.value})
		}
	}
	sort.Slice(out, func(i, j int) bool { return labelKey(out[i].Labels) < labelKey(out[j].Labels) })
	return out
}

// MergedHistogram merges the histogram series of a family that carry
// every match label (all of them when none is given) into one snapshot —
// the exact cluster-wide distribution (e.g. apply-latency p99 across all
// primaries).
func (f *Federation) MergedHistogram(name string, match ...Label) HistogramSnapshot {
	var m HistogramSnapshot
	ff := f.fams[name]
	if ff == nil {
		return m
	}
	for _, s := range ff.series {
		if s.hist != nil && hasLabels(s.labels, match) {
			m.Merge(*s.hist)
		}
	}
	return m
}

// WritePrometheus writes the federated set in the same text exposition
// format as Registry.WritePrometheus: families sorted by name, one HELP
// and TYPE line per family, series sorted by label key, histograms as
// summaries with quantile children plus _sum and _count.
func (f *Federation) WritePrometheus(w io.Writer) {
	names := make([]string, 0, len(f.fams))
	for n := range f.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ff := f.fams[n]
		keys := make([]string, 0, len(ff.series))
		for k := range ff.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		fmt.Fprintf(w, "# HELP %s %s\n", ff.name, escapeHelp(ff.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", ff.name, ff.kind)
		for _, k := range keys {
			s := ff.series[k]
			if ff.kind == "summary" && s.hist != nil {
				for _, q := range quantiles {
					ql := `quantile="` + formatValue(q) + `"`
					writeSample(w, ff.name, k, ql, s.hist.Quantile(q))
				}
				writeSample(w, ff.name+"_sum", k, "", s.hist.Sum)
				writeSample(w, ff.name+"_count", k, "", float64(s.hist.Count))
				continue
			}
			writeSample(w, ff.name, k, "", s.value)
		}
	}
}
