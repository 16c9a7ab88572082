package incgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestParallelServeSixClassDifferential is the whole-fleet differential
// test of the parallel execution mode: all six query classes are hosted
// twice — once sequential, once with Workers: 4 — fed the same randomized
// update stream, and every pair of final published views must be
// deep-equal. The engine-backed classes (SSSP, CC) actually partition
// their repair rounds; the specialized maintainers (Sim, DFS, LCC, BC)
// ignore the worker setting and must be byte-for-byte unaffected by it.
// Run under -race this also exercises the worker pool's synchronization.
func TestParallelServeSixClassDifferential(t *testing.T) {
	const nodes, chunks, chunkLen = 300, 5, 60
	for seed := int64(0); seed < 3; seed++ {
		base := PowerLawGraph(seed+100, nodes, 5, false)
		pattern := RandomPattern(seed, 4, 5, 3)
		stream := make(Batch, 0, chunks*chunkLen)
		rng := rand.New(rand.NewSource(seed + 7))
		for len(stream) < cap(stream) {
			u := NodeID(rng.Intn(nodes))
			v := NodeID(rng.Intn(nodes))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				stream = append(stream, Update{Kind: DeleteEdge, From: u, To: v})
			} else {
				stream = append(stream, Update{Kind: InsertEdge, From: u, To: v, W: int64(rng.Intn(9) + 1)})
			}
		}

		build := func(workers int) map[string]*ServeHost {
			opt := ServeOptions{MaxBatch: chunkLen, Workers: workers}
			return map[string]*ServeHost{
				"sssp": NewServeHost(ServeSSSP(NewIncSSSP(base.Clone(), 0), 0), opt),
				"cc":   NewServeHost(ServeCC(NewIncCC(base.Clone())), opt),
				"sim":  NewServeHost(ServeSim(NewIncSim(base.Clone(), pattern)), opt),
				"dfs":  NewServeHost(ServeDFS(NewIncDFS(base.Clone())), opt),
				"lcc":  NewServeHost(ServeLCC(NewIncLCC(base.Clone())), opt),
				"bc":   NewServeHost(ServeBC(NewIncBC(base.Clone())), opt),
			}
		}
		seq, par := build(0), build(4)
		for _, hosts := range []map[string]*ServeHost{seq, par} {
			for _, h := range hosts {
				for i := 0; i < chunks; i++ {
					if err := h.Submit(stream[i*chunkLen : (i+1)*chunkLen]); err != nil {
						t.Fatal(err)
					}
				}
				h.Close()
			}
		}
		for algo, hs := range seq {
			hp := par[algo]
			if a, b := hs.View(), hp.View(); !reflect.DeepEqual(a.Data, b.Data) {
				t.Fatalf("seed %d %s: parallel host's final view differs from sequential", seed, algo)
			}
			if a, b := hs.View().Epoch, hp.View().Epoch; a != b {
				t.Fatalf("seed %d %s: epochs diverged: %d vs %d", seed, algo, a, b)
			}
		}
		// The engine-backed hosts must report the worker configuration.
		if st := par["sssp"].Stats(); st.Workers != 4 {
			t.Fatalf("seed %d: sssp host Workers = %d, want 4", seed, st.Workers)
		}
		if st := par["cc"].Stats(); st.Workers != 4 {
			t.Fatalf("seed %d: cc host Workers = %d, want 4", seed, st.Workers)
		}
		// Specialized maintainers don't implement the extension: the host
		// must fall back to sequential and say so.
		for _, algo := range []string{"dfs", "lcc", "bc", "sim"} {
			if st := par[algo].Stats(); st.Workers != 0 {
				t.Fatalf("seed %d: %s host claims workers %d without support", seed, algo, st.Workers)
			}
		}
	}
}
