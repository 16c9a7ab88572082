package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case histogramKind:
		// Histograms are exposed as Prometheus summaries: pre-computed
		// quantiles, not le-bucket series — the log-bucket layout is an
		// implementation detail, and quantiles are what dashboards want.
		return "summary"
	}
	return "untyped"
}

// series is one labeled instance of a metric family.
type series struct {
	key     string // rendered label pairs, the family's map key and sort key
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

type family struct {
	name, help string
	kind       metricKind
	mu         sync.Mutex
	series     map[string]*series
}

func (f *family) get(labels []Label) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{key: key, labels: append([]Label(nil), labels...)}
	switch f.kind {
	case counterKind:
		s.counter = &Counter{}
	case gaugeKind:
		s.gauge = &Gauge{}
	case histogramKind:
		s.hist = &Histogram{}
	}
	f.series[key] = s
	return s
}

// Registry is a set of named metric families, each holding one series
// per label combination. Get-or-create lookups take a mutex, so callers
// on hot paths should resolve their metric handles once and hold them;
// the handles themselves are lock-free.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.fams[name]; f == nil {
			f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter series for the label set, creating family
// and series on first use. Re-registering a name with a different metric
// type panics: that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, counterKind).get(labels).counter
}

// Gauge returns the gauge series for the label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, gaugeKind).get(labels).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (uptime, queue depths — values that exist outside the registry).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, gaugeFuncKind).get(labels).fn = fn
}

// Histogram returns the histogram series for the label set.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.family(name, help, histogramKind).get(labels).hist
}

// quantiles exposed for every histogram; 1 is the exact max.
var quantiles = []float64{0.5, 0.95, 0.99, 1}

// WritePrometheus writes the registry's Snapshot in Prometheus text
// exposition format (writePrometheus).
func (r *Registry) WritePrometheus(w io.Writer) { writePrometheus(w, r.Snapshot()) }

// writePrometheus is the one text exposition writer (format version
// 0.0.4), for a registry and a federation alike: fams in the order given —
// both sort families by name and series by label set — with one HELP and
// TYPE line per family, and each summary (histogram) series as quantile
// children plus _sum and _count.
func writePrometheus(w io.Writer, fams []FamilySnapshot) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			key := labelKey(s.Labels)
			if f.Kind != "summary" || s.Hist == nil {
				writeSample(w, f.Name, key, "", s.Value)
				continue
			}
			for _, q := range quantiles {
				writeSample(w, f.Name, key, `quantile="`+formatValue(q)+`"`, s.Hist.Quantile(q))
			}
			writeSample(w, f.Name+"_sum", key, "", s.Hist.Sum)
			writeSample(w, f.Name+"_count", key, "", float64(s.Hist.Count))
		}
	}
}

func writeSample(w io.Writer, name, labelPairs, extraPair string, v float64) {
	pairs := labelPairs
	if extraPair != "" {
		if pairs != "" {
			pairs += ","
		}
		pairs += extraPair
	}
	if pairs != "" {
		fmt.Fprintf(w, "%s{%s} %s\n", name, pairs, formatValue(v))
	} else {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// Handler returns an HTTP handler serving the exposition, for mounting
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
