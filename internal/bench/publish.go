package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
)

// publishPerApply is the batch size of the publish experiment: the
// repository benchmark's trickle workload posts 8 unit updates at a time.
const publishPerApply = 8

// publishGaps are the applies-between-reads the experiment measures a GET
// at, with how many reads each gets. 200 is the regime of a writer that
// does not wait out a coalescing window: the repository benchmark's
// trickle writer gets 40–50 applies in between two paced reads.
var publishGaps = [...]struct{ applies, reads int }{{1, 10}, {5, 10}, {50, 4}, {200, 2}}

// ExpPublish is rung (g) of the benchmark ladder: what it costs the
// serving layer to publish a view after an apply and to answer GET
// /query from it, as |V| grows and the update stream stays the same.
//
// Every size hosts the same core — an undirected power-law graph of
// 25,000 × scale nodes, degree 8 — padded with a second power-law graph
// the core has no edge to, up to 25k / 100k / 400k × scale nodes, and
// replays the same trickle-shaped stream against the core (8 unit
// updates per apply; half delete an edge, half put a deleted one back).
// So ΔG and the maintainers' affected areas are identical at every size,
// and anything that grows down a column is the serving layer paying for
// |V|. SSSP and CC publish from the maintainer's written list; DFS, LCC
// and BC have none and pay a comparison pass over their vectors.
//
// Per class and size, each class hosted alone behind a real Service on a
// loopback server: pages copied per apply; publish time per apply
// (Snapshot alone, median); pages encoded from scratch per GET and
// entries spliced into inherited bytes between two GETs when 1, 5, 50 and
// 200 applies separate them; GET latency cold (no page cached), warm
// (every page cached) and at each of those gaps. Every replaced page
// inherits its predecessor's encoded bytes, so once the first GET has
// read the view the encoded count is 0 at every gap and a GET costs the
// warm one's copy, however many applies went by; what grows with the gap
// is the spliced count, paid by the apply loop.
//
// Result rows: Workload names the count ("pages_copied/apply",
// "pages_encoded/get@1", "entries_spliced/get@1", …), Work is its total
// over the run and BoundedRatio the count per apply or per GET — exact
// for a fixed seed and scale, so incbench -diff holds them to its
// tolerance (and a count that was 0 to staying 0); IncSeconds is the
// publish time (first row) or the median GET at that gap, and
// BatchSeconds the cold GET, so Speedup reads "× faster than encoding
// everything".
func ExpPublish(cfg Config) {
	core := max(int(25000*cfg.Scale), 64)
	t := newTable(cfg.Out, fmt.Sprintf("View publication and paged reads: one %d-node core and stream, |V| padded up", core),
		"|V|", "class", "pages", "copied/apply", "publish", "enc/GET @1/5/50/200", "spliced/GET @1/5/50/200", "GET cold", "warm", "@1", "@5", "@50", "@200")
	defer t.flush()
	for _, mult := range []int{1, 4, 16} {
		n := core * mult
		dataset := fmt.Sprintf("PL-%dx8", n)
		for _, class := range []string{"sssp", "cc", "dfs", "lcc", "bc"} {
			m, err := measurePublish(cfg.Seed, core, n, class)
			if err != nil {
				fmt.Fprintf(cfg.Out, "publish %s at |V|=%d: %v\n", class, n, err)
				return
			}
			us := func(sec float64) string { return fmt.Sprintf("%.0fµs", sec*1e6) }
			perGET := func(counts [len(publishGaps)]int64) string {
				var cells []string
				for i, gap := range publishGaps {
					cells = append(cells, fmt.Sprintf("%.1f", float64(counts[i])/float64(gap.reads)))
				}
				return strings.Join(cells, "/")
			}
			t.row(n, class, m.pages, fmt.Sprintf("%.1f", float64(m.copied)/float64(m.applies)), fmt.Sprintf("%.1fµs", m.publish*1e6),
				perGET(m.encoded), perGET(m.spliced),
				us(m.cold), us(m.warm), us(m.get[0]), us(m.get[1]), us(m.get[2]), us(m.get[3]))
			cfg.report(Result{Experiment: "publish", Dataset: dataset, Algo: class, Workload: "pages_copied/apply",
				BatchSeconds: m.cold, IncSeconds: m.publish, Work: m.copied, BoundedRatio: float64(m.copied) / float64(m.applies)})
			for i, gap := range publishGaps {
				for _, count := range []struct {
					name string
					n    int64
				}{{"pages_encoded", m.encoded[i]}, {"entries_spliced", m.spliced[i]}} {
					cfg.report(Result{Experiment: "publish", Dataset: dataset, Algo: class,
						Workload:     fmt.Sprintf("%s/get@%d", count.name, gap.applies),
						BatchSeconds: m.cold, IncSeconds: m.get[i], Work: count.n, BoundedRatio: float64(count.n) / float64(gap.reads)})
				}
			}
		}
	}
}

// publishCost is one class's totals at one size.
type publishCost struct {
	pages   int   // pages of the published view
	applies int   // applies measured
	copied  int64 // pages copied by them
	publish float64
	encoded [len(publishGaps)]int64   // pages the reads at each gap encoded from scratch
	spliced [len(publishGaps)]int64   // entries the applies at each gap spliced into inherited bytes
	get     [len(publishGaps)]float64 // median GET seconds at each gap
	cold    float64                   // the first GET: every page encoded
	warm    float64                   // median GET with every page cached
}

// snapshotTimer times the Snapshot calls a host makes.
type snapshotTimer struct {
	serve.Serveable
	secs []float64
}

func (s *snapshotTimer) Snapshot() any {
	start := time.Now()
	v := s.Serveable.Snapshot()
	s.secs = append(s.secs, time.Since(start).Seconds())
	return v
}

// paddedGraph is the core on nodes [0, core) plus, when n > core, a
// power-law graph on [core, n) that no edge connects to it.
func paddedGraph(seed int64, core, n int) *graph.Graph {
	g := graph.New(n, false)
	gen.PowerLaw(newRNG(seed), core, 8, false).Edges(func(u, v graph.NodeID, w int64) { g.InsertEdge(u, v, w) })
	if n > core {
		off := graph.NodeID(core)
		gen.PowerLaw(newRNG(seed+1), n-core, 8, false).Edges(func(u, v graph.NodeID, w int64) { g.InsertEdge(u+off, v+off, w) })
	}
	return g
}

// trickleStream generates the repository benchmark's update shape on the
// core's edges: each unit update deletes a random present edge or puts
// back, with its weight, one deleted earlier.
type trickleStream struct {
	rng              *rand.Rand
	present, removed [][3]int64 // u, v, w
}

// newTrickleStream streams over g's edges among the first core nodes.
func newTrickleStream(seed int64, g *graph.Graph, core int) *trickleStream {
	s := &trickleStream{rng: newRNG(seed)}
	g.Edges(func(u, v graph.NodeID, w int64) {
		if int(u) < core && int(v) < core {
			s.present = append(s.present, [3]int64{int64(u), int64(v), w})
		}
	})
	return s
}

func (s *trickleStream) next() graph.Batch {
	take := func(es *[][3]int64) [3]int64 {
		i := s.rng.Intn(len(*es))
		e := (*es)[i]
		(*es)[i] = (*es)[len(*es)-1]
		*es = (*es)[:len(*es)-1]
		return e
	}
	b := make(graph.Batch, 0, publishPerApply)
	for len(b) < publishPerApply {
		if len(s.removed) == 0 || (s.rng.Intn(2) == 0 && len(s.present) > 0) {
			e := take(&s.present)
			s.removed = append(s.removed, e)
			b = append(b, graph.Update{Kind: graph.DeleteEdge, From: graph.NodeID(e[0]), To: graph.NodeID(e[1])})
		} else {
			e := take(&s.removed)
			s.present = append(s.present, e)
			b = append(b, graph.Update{Kind: graph.InsertEdge, From: graph.NodeID(e[0]), To: graph.NodeID(e[1]), W: e[2]})
		}
	}
	return b
}

func measurePublish(seed int64, core, n int, class string) (m publishCost, err error) {
	g := paddedGraph(seed, core, n)
	stream := newTrickleStream(seed+2, g, core)
	c, _ := serve.LookupClass(class)
	inner, err := c.New(g, serve.Params{})
	if err != nil {
		return m, err
	}
	inner.Recompute()
	timer := &snapshotTimer{Serveable: inner}
	svc := serve.NewService()
	defer svc.Close()
	h, err := svc.Host(timer, serve.Options{}) // every waited submission finds the host idle: one apply each
	if err != nil {
		return m, err
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	get := func() (float64, error) {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/query/" + class)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET /query/%s: status %d", class, resp.StatusCode)
		}
		return time.Since(start).Seconds(), nil
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil { // open the connection the reads reuse
		return m, err
	} else {
		resp.Body.Close()
	}
	runtime.GC() // building the maintainer left a heap's worth of garbage; keep its collection out of the cold read
	if m.cold, err = get(); err != nil {
		return m, err
	}
	var warm []float64
	for i := 0; i < 5; i++ {
		sec, err := get()
		if err != nil {
			return m, err
		}
		warm = append(warm, sec)
	}
	m.warm = median(warm)
	timer.secs = timer.secs[:0] // drop the initial full build
	for i, gap := range publishGaps {
		var lat []float64
		before := h.Stats()
		for r := 0; r < gap.reads; r++ {
			for a := 0; a < gap.applies; a++ {
				ack, err := svc.Submit(stream.next(), trace.TraceID{})
				if err != nil {
					return m, err
				}
				<-ack
				m.applies++
			}
			sec, err := get()
			if err != nil {
				return m, err
			}
			lat = append(lat, sec)
		}
		after := h.Stats()
		m.encoded[i] = int64(after.PagesEncoded - before.PagesEncoded)
		m.spliced[i] = int64(after.EntriesSpliced - before.EntriesSpliced)
		m.get[i] = median(lat)
	}
	st := h.Stats()
	m.copied = int64(st.PagesCopied)
	if applies := h.RecentApplies(); len(applies) > 0 {
		m.pages = applies[len(applies)-1].PagesTotal
	}
	m.publish = median(timer.secs)
	return m, nil
}
