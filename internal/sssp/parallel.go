package sssp

import (
	"time"

	"incgraph/internal/fixpoint"
	"incgraph/internal/graph"
)

// Parallel execution mode for the specialized IncSSSP maintainer,
// mirroring the generic engine's round-level work-sharing (see
// internal/fixpoint/parallel.go): Repair's resumed Dijkstra loop is
// decomposed into rounds; each round's queue snapshot is partitioned into
// contiguous chunks across a reusable fixpoint.Pool, workers relax their
// chunk's out-edges against the frozen round-start distances into
// per-worker candidate buffers, and the driver merges the buffers
// sequentially in stable (worker, emission) order through the monotone
// meet (min). Distances converge to the same unique fixpoint as the
// sequential loop (chaotic relaxation over positive weights); the h phase
// stays sequential — it is ordered by <_C and bounded by |ΔG|.

// ssspCand is one buffered relaxation: distance d proposed for node v.
type ssspCand struct {
	v graph.NodeID
	d int64
}

// ssspWorker is the per-worker state of the parallel resume, reused
// across rounds and repairs.
type ssspWorker struct {
	cands   []ssspCand
	scanned int64 // out-edges examined this round (work/imbalance proxy)
	busy    int64 // compute nanos this round
}

// ssspPart is a half-open chunk [lo, hi) of the round's frontier.
type ssspPart struct{ lo, hi int }

// ssspParThreshold matches the engine's default: queues smaller than this
// are drained sequentially even in parallel mode.
const ssspParThreshold = 64

// SetWorkers sets the worker count for subsequent Repairs: n >= 2
// partitions every resume round whose queue reaches the internal
// threshold across n workers; n <= 1 restores the sequential loop (the
// default) with zero added allocations. Part of the single-writer
// contract: call only between Applies, from the writer goroutine.
func (i *Inc) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n == i.workers || (n <= 1 && i.workers <= 1) {
		return
	}
	i.workers = n
	i.par.Workers = n
	if i.pool != nil {
		i.pool.Close()
		i.pool = nil
	}
	if n <= 1 {
		i.ws = nil
		i.parts = nil
		return
	}
	i.ws = make([]ssspWorker, n)
	i.parts = make([]ssspPart, n)
	if i.parRelaxFn == nil {
		i.parRelaxFn = func(w int) {
			t0 := time.Now()
			pw := &i.ws[w]
			for _, v := range i.frontier[i.parts[w].lo:i.parts[w].hi] {
				dv := i.dist[v]
				if dv >= Infinity {
					continue
				}
				// Workers scan the frozen CSR base (plus the short overlay
				// tail) with no pointer chasing. The flat view is immutable
				// for the whole resume — Stage ran before Repair — so
				// concurrent readers are safe. The spans are fetched here,
				// per vertex, and die with the iteration: a compaction
				// refills the arrays they point into, so none may outlive
				// the resume (TestParallelCompactsBetweenResumes).
				ts, ws, dead, extra := i.flat.OutSpans(v)
				for k, t := range ts {
					if dead != nil && dead[k] {
						continue
					}
					pw.scanned++
					if alt := dv + ws[k]; alt < i.dist[t] {
						pw.cands = append(pw.cands, ssspCand{t, alt})
					}
				}
				for _, e := range extra {
					pw.scanned++
					if alt := dv + e.W; alt < i.dist[e.To] {
						pw.cands = append(pw.cands, ssspCand{e.To, alt})
					}
				}
			}
			pw.busy += time.Since(t0).Nanoseconds()
		}
	}
}

// Workers returns the configured worker count (1 = sequential).
func (i *Inc) Workers() int {
	if i.workers < 1 {
		return 1
	}
	return i.workers
}

// ParStats returns the cumulative parallel-resume counters; zero-valued
// while the maintainer runs sequentially.
func (i *Inc) ParStats() fixpoint.ParStats { return i.par }

// Close releases the worker pool, if any; the maintainer stays usable
// (the pool respawns lazily on the next parallel round).
func (i *Inc) Close() {
	if i.pool != nil {
		i.pool.Close()
		i.pool = nil
	}
}

// drainParallel is the parallel resumed step function: rounds below the
// threshold run the sequential relaxation inline (in Dijkstra's priority
// order); larger rounds are partitioned across the pool.
func (i *Inc) drainParallel() {
	round := 0
	for i.wq.Len() > 0 {
		frontier := i.wq.Len()
		round++
		i.stats.Ledger.Rounds++
		if frontier < ssspParThreshold {
			i.par.SeqRounds++
			for n := 0; n < frontier; n++ {
				x, ok := i.wq.Pop()
				if !ok {
					break
				}
				i.stats.Pops++
				v := graph.NodeID(x)
				dv := i.dist[v]
				if dv >= Infinity {
					continue
				}
				i.relaxOut(v, dv)
			}
			continue
		}
		i.parRound(round)
	}
}

// parRound processes one partitioned resume round.
func (i *Inc) parRound(round int) {
	if i.pool == nil {
		i.pool = fixpoint.NewPool(i.workers)
	}
	// Snapshot the queue in priority order — the deterministic basis for
	// partitioning and merging.
	i.frontier = i.frontier[:0]
	for {
		x, ok := i.wq.Pop()
		if !ok {
			break
		}
		i.frontier = append(i.frontier, graph.NodeID(x))
	}
	i.stats.Pops += int64(len(i.frontier))
	n := len(i.frontier)
	k := i.workers
	if k > n {
		k = n
	}
	chunk := (n + k - 1) / k
	k = (n + chunk - 1) / chunk
	for w := 0; w < k; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		i.parts[w] = ssspPart{lo, hi}
	}

	wall0 := time.Now()
	i.pool.Run(k, i.parRelaxFn)
	wall := time.Since(wall0).Nanoseconds()

	// Deterministic merge: stable (worker, emission) order, monotone min.
	var installs int64
	for w := 0; w < k; w++ {
		pw := &i.ws[w]
		i.stats.Updates += pw.scanned
		for _, c := range pw.cands {
			if c.d < i.dist[c.v] {
				i.ledgerWrite(c.v, i.dist[c.v])
				i.dist[c.v] = c.d
				i.wq.AddOrAdjust(int32(c.v))
				installs++
			}
		}
		pw.cands = pw.cands[:0]
	}

	var busy, busiest, busiestWork, totalWork int64
	for w := 0; w < k; w++ {
		pw := &i.ws[w]
		busy += pw.busy
		if pw.busy > busiest {
			busiest = pw.busy
		}
		if pw.scanned > busiestWork {
			busiestWork = pw.scanned
		}
		totalWork += pw.scanned
		pw.busy = 0
		pw.scanned = 0
	}
	i.par.ParRounds++
	i.par.Items += int64(n)
	i.par.Candidates += totalWork
	i.par.BusyNanos += busy
	i.par.WallNanos += wall
	imb := 1.0
	if totalWork > 0 {
		imb = float64(busiestWork) * float64(k) / float64(totalWork)
	}
	i.par.LastImbalance = imb
	if imb > i.par.MaxImbalance {
		i.par.MaxImbalance = imb
	}
	if i.tracer != nil {
		i.tracer.Round(round, int64(n), int64(n), installs, int64(i.wq.Len()))
		if pt, ok := i.tracer.(fixpoint.ParRoundTracer); ok {
			pt.ParRound(round, i.workers, int64(n), totalWork, busiest, wall)
		}
	}
}
