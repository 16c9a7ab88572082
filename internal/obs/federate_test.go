package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestFederationDedupSameName is the regression for federating two
// registries that expose the same metric name with no labels (a router
// rollup and a scraped shard series): the merged exposition must emit
// the family header once and must never emit two identical unlabeled
// sample lines.
func TestFederationDedupSameName(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("incgraph_shed_total", "updates shed").Add(3)
	r2 := NewRegistry()
	r2.Counter("incgraph_shed_total", "updates shed").Add(5)

	fed := NewFederation()
	fed.Ingest(r1.Snapshot(), L("shard", "0"), L("role", "primary"))
	fed.Ingest(r2.Snapshot(), L("shard", "1"), L("role", "primary"))

	var b bytes.Buffer
	fed.WritePrometheus(&b)
	out := b.String()

	if n := strings.Count(out, "# TYPE incgraph_shed_total counter"); n != 1 {
		t.Fatalf("family header emitted %d times:\n%s", n, out)
	}
	if strings.Contains(out, "\nincgraph_shed_total ") {
		t.Fatalf("unlabeled duplicate sample leaked:\n%s", out)
	}
	for _, want := range []string{
		`incgraph_shed_total{role="primary",shard="0"} 3`,
		`incgraph_shed_total{role="primary",shard="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if got := fed.SumValues("incgraph_shed_total"); got != 8 {
		t.Fatalf("SumValues = %v, want 8", got)
	}

	// Re-ingesting the same member replaces its series rather than
	// duplicating the sample line.
	fed.Ingest(r2.Snapshot(), L("shard", "1"), L("role", "primary"))
	b.Reset()
	fed.WritePrometheus(&b)
	if n := strings.Count(b.String(), `incgraph_shed_total{role="primary",shard="1"}`); n != 1 {
		t.Fatalf("re-ingest produced %d sample lines for the same label set", n)
	}
}

// A member whose family name collides with an existing federated family
// under a different kind must be dropped, not mixed into the wrong type.
func TestFederationKindConflictDropped(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("incgraph_x_total", "as counter").Inc()
	r2 := NewRegistry()
	r2.Gauge("incgraph_x_total", "as gauge").Set(9)

	fed := NewFederation()
	fed.Ingest(r1.Snapshot(), L("shard", "0"))
	fed.Ingest(r2.Snapshot(), L("shard", "1"))
	if fed.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", fed.Dropped())
	}
	var b bytes.Buffer
	fed.WritePrometheus(&b)
	if strings.Contains(b.String(), `shard="1"`) {
		t.Fatalf("conflicting-kind series leaked:\n%s", b.String())
	}
}

// Extra labels are authoritative: a member series already carrying a
// shard label gets the scraper's value, not its self-reported one.
func TestFederationExtraLabelWins(t *testing.T) {
	r := NewRegistry()
	r.Gauge("incgraph_g", "g", L("shard", "self"), L("algo", "sssp")).Set(1)
	fed := NewFederation()
	fed.Ingest(r.Snapshot(), L("shard", "2"))
	vals := fed.Values("incgraph_g")
	if len(vals) != 1 {
		t.Fatalf("got %d series", len(vals))
	}
	if key := labelKey(vals[0].Labels); key != `algo="sssp",shard="2"` {
		t.Fatalf("labels = %s", key)
	}
}

// Merging histogram snapshots across registries must give the same
// quantiles as observing every sample into one histogram — the property
// that makes the cluster apply p99 exact rather than an average of
// per-shard quantiles.
func TestHistogramSnapshotMergeQuantiles(t *testing.T) {
	var whole Histogram
	r1 := NewRegistry()
	r2 := NewRegistry()
	h1 := r1.Histogram("incgraph_apply_latency_seconds", "apply latency")
	h2 := r2.Histogram("incgraph_apply_latency_seconds", "apply latency")
	for i := 1; i <= 1000; i++ {
		v := float64(i) * 0.001
		whole.Observe(v)
		if i%2 == 0 {
			h1.Observe(v)
		} else {
			h2.Observe(v)
		}
	}

	fed := NewFederation()
	fed.Ingest(r1.Snapshot(), L("shard", "0"))
	fed.Ingest(r2.Snapshot(), L("shard", "1"))
	m := fed.MergedHistogram("incgraph_apply_latency_seconds")

	if m.Count != 1000 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if math.Abs(m.Sum-whole.Sum()) > 1e-9 {
		t.Fatalf("merged sum = %v, want %v", m.Sum, whole.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got, want := m.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("q%v: merged %v, whole %v", q, got, want)
		}
	}
}

// The JSON snapshot round-trips through ParseSnapshot with buckets
// intact, so a federating scrape loses nothing.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("incgraph_c_total", "c", L("algo", "cc")).Add(7)
	r.Histogram("incgraph_h_seconds", "h").Observe(0.25)
	r.GaugeFunc("incgraph_up", "up", func() float64 { return 42 })

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseSnapshot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if got := byName["incgraph_c_total"].Series[0].Value; got != 7 {
		t.Fatalf("counter = %v", got)
	}
	if got := byName["incgraph_up"].Series[0].Value; got != 42 {
		t.Fatalf("gauge func = %v", got)
	}
	h := byName["incgraph_h_seconds"].Series[0].Hist
	if h == nil || h.Count != 1 || len(h.Buckets) != 1 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.25) > 0.25*0.0625 {
		t.Fatalf("round-tripped median = %v", got)
	}
}

// Empty merged histograms expose 0 quantiles, matching live
// histograms: a NaN would flow into every JSON rollup built on the
// federation (the cluster bounded-ratio series among them) and either
// fail encoding or poison downstream arithmetic. Absent data is
// distinguishable by the zero count, not by a sentinel value.
func TestMergedHistogramEmptyZero(t *testing.T) {
	fed := NewFederation()
	m := fed.MergedHistogram("nope")
	if m.Count != 0 {
		t.Fatalf("empty merge count = %d", m.Count)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if v := m.Quantile(q); v != 0 {
			t.Fatalf("empty merged Quantile(%v) = %v, want 0", q, v)
		}
	}
}

// TestFederationWritesRegistryBytes: the text exposition has one writer,
// so a Federation fed one registry's snapshot, with no extra labels, must
// write exactly the bytes the registry writes — over random registries of
// every metric kind, with labels registered in any order and values,
// help texts and label values that need escaping.
func TestFederationWritesRegistryBytes(t *testing.T) {
	kinds := []func(r *Registry, rng *rand.Rand, name, help string, ls []Label){
		func(r *Registry, rng *rand.Rand, name, help string, ls []Label) {
			r.Counter(name, help, ls...).Add(float64(rng.Intn(1000)))
		},
		func(r *Registry, rng *rand.Rand, name, help string, ls []Label) {
			r.Gauge(name, help, ls...).Set(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)))
		},
		func(r *Registry, rng *rand.Rand, name, help string, ls []Label) {
			v := rng.Float64()
			r.GaugeFunc(name, help, func() float64 { return v }, ls...)
		},
		func(r *Registry, rng *rand.Rand, name, help string, ls []Label) {
			h := r.Histogram(name, help, ls...)
			for i := rng.Intn(40); i > 0; i-- {
				h.Observe(rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(16)-8)))
			}
			if rng.Intn(4) == 0 {
				h.Observe(0)
			}
		},
	}
	values := []string{"cc", "sssp", `a"b`, `back\slash`, "new\nline", "", "0"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		for f := rng.Intn(6); f > 0; f-- {
			name := fmt.Sprintf("fam_%d", rng.Intn(8))
			help := values[rng.Intn(len(values))] + " help"
			kind := kinds[rng.Intn(len(kinds))]
			func() {
				defer func() { recover() }() // a name drawn again under another kind panics
				for s := rng.Intn(4) + 1; s > 0; s-- {
					var ls []Label
					for _, k := range rng.Perm(4)[:rng.Intn(4)] {
						ls = append(ls, L(fmt.Sprintf("k%d", k), values[rng.Intn(len(values))]))
					}
					kind(r, rng, name, help, ls)
				}
			}()
		}
		var want, got strings.Builder
		r.WritePrometheus(&want)
		fed := NewFederation()
		fed.Ingest(r.Snapshot())
		fed.WritePrometheus(&got)
		if want.String() != got.String() {
			t.Logf("seed %d:\n--- registry ---\n%s--- federation ---\n%s", seed, want.String(), got.String())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
