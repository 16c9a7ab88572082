//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The reference server is the benchmark's yardstick for the speed of the
// host at the moment of measuring. The sandbox host is shared: with no
// steal reported, the cost of a cache miss, a system call and an fsync
// moves by 20-40% for seconds to minutes at a time, and every timing of the
// system under test moves with it (see README, "Why the timings are
// normalised"). The end-to-end run therefore measures, in alternation with
// the system under test and with the same client loop, this fixed program
// whose ops are made of the same ingredients — a loopback HTTP round trip,
// a breadth-first search over a graph of the workload's size, a timer wait,
// an append and fsync, the JSON encoding of an O(|V|) view — and reports each timing
// relative to the reference's. Nothing in it comes from the repository, so
// a change to the repository cannot move the yardstick.
//
// It speaks just enough of incgraphd's wire shape for the load loop to
// drive it unchanged: POST /update, GET /query/{anything}, GET /healthz.

// refParams size the reference ops for one workload.
type refParams struct {
	nodes, deg int           // the random graph a POST searches: the size of the workload's own
	search     int           // edges a POST /update scans breadth-first
	wait       time.Duration // fixed wait per POST: the coalescing windows the system's POST sits through
	view       int           // entries of the view a GET /query encodes
	gets       int           // GETs per query op (0: one per hosted class, as for the system)
	fsync      bool          // append each POST body to a file and fsync it
}

func (p refParams) args(listen, dir string) []string {
	return []string{"-refserver", "-ref-listen", listen, "-ref-dir", dir,
		"-ref-nodes", strconv.Itoa(p.nodes), "-ref-deg", strconv.Itoa(p.deg), "-ref-search", strconv.Itoa(p.search),
		"-ref-wait", p.wait.String(), "-ref-view", strconv.Itoa(p.view), "-ref-fsync=" + strconv.FormatBool(p.fsync)}
}

// refGraph is the fixed random graph the reference POST searches: deg
// out-edges per node, flat in memory. It is generated here, not by the
// repository's generators, and is the size of the workload's graph, so
// that the search's working set sits in the caches the way the system's does:
// a search over an array far larger than that was measured following the
// host's last-level cache and memory, which the system does not.
type refGraph struct {
	deg   int
	tgt   []uint32 // node v's out-neighbours are tgt[v*deg : (v+1)*deg]
	stamp []uint32 // visited marks, by epoch
	epoch uint32
	rng   uint64
}

func (g *refGraph) rand() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

func newRefGraph(nodes, deg int) *refGraph {
	g := &refGraph{deg: deg, tgt: make([]uint32, nodes*deg), stamp: make([]uint32, nodes), rng: 0x9E3779B97F4A7C15}
	for i := range g.tgt {
		g.tgt[i] = uint32(g.rand() % uint64(nodes))
	}
	return g
}

// search scans about edges edges breadth-first from random start nodes and
// returns the level sizes it found, freshly allocated like the frontiers,
// as a maintainer's scratch space and snapshot are.
func (g *refGraph) search(edges int) []uint32 {
	var levels []uint32
	for scanned := 0; scanned < edges; {
		g.epoch++
		queue := []uint32{uint32(g.rand() % uint64(len(g.stamp)))}
		g.stamp[queue[0]] = g.epoch
		for len(queue) > 0 && scanned < edges {
			var next []uint32
			for _, v := range queue {
				for _, u := range g.tgt[int(v)*g.deg : (int(v)+1)*g.deg] {
					if g.stamp[u] != g.epoch {
						g.stamp[u] = g.epoch
						next = append(next, u)
					}
				}
				scanned += g.deg
			}
			levels = append(levels, uint32(len(next)))
			queue = next
		}
	}
	return levels
}

// refView is the body of a reference GET: the shape of a served view.
type refView struct {
	Epoch  int64   `json:"epoch"`
	Values []int64 `json:"values"`
}

// runRefServer serves the reference ops on listen until the process is
// killed. dir holds the file fsynced POSTs append to.
func runRefServer(listen, dir string, p refParams) error {
	g := newRefGraph(p.nodes, p.deg)
	values := make([]int64, p.view)
	for i := range values {
		values[i] = int64(g.rand() % (1 << 40))
	}
	var (
		mu    sync.Mutex // one POST at a time, as one apply loop would
		epoch atomic.Int64
		log   *os.File
	)
	if p.fsync {
		f, err := os.Create(filepath.Join(dir, "ref.log"))
		if err != nil {
			return err
		}
		defer f.Close()
		log = f
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		levels := g.search(p.search)
		if p.wait > 0 {
			time.Sleep(p.wait)
		}
		epoch.Add(1)
		if log != nil {
			_, err := log.Write(body)
			if err == nil {
				err = log.Sync()
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		fmt.Fprintf(w, "{\"accepted\":%d,\"levels\":%d}\n", len(body), len(levels))
	})
	mux.HandleFunc("/query/", func(w http.ResponseWriter, r *http.Request) {
		out, err := json.Marshal(refView{Epoch: epoch.Load(), Values: values}) // reads never wait for a write
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
	return http.ListenAndServe(listen, mux)
}
