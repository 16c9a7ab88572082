package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
)

// StartupPhase is how long one phase of a service's start took.
type StartupPhase struct {
	Name string
	Took time.Duration
}

// Started is what Start reports of a start, for the caller's log lines:
// its phases (graph, build, restore, replay, verify), each the wall time
// it took; each class's build time and how and in what time each class
// was verified, both in class-list order; and the classes verification
// corrected, in name order. A class's times are its own — its build
// includes its batch run, if it had one — and as the classes' batch runs
// and checks run side by side, they may add up to more than their phase.
type Started struct {
	Phases   []StartupPhase
	Build    []time.Duration
	Verify   []Check
	Diverged []string
}

// Start is the one start sequence of a service, over the classes algos in
// order: the cut of the newest checkpoint in dir, or without one input's
// graph (input is called only then), is the one graph every class is built
// on — the store they share, which the replay and then the apply loop
// advance once per batch (graph.Graph.Advance). build returns a class
// before any batch run (over a Blank maintainer); Start restores the cut's
// state into it or, where the cut holds none, runs its batch algorithm in
// place (Recompute) — one of the two, never both. build and the restores
// run one class at a time, in class-list order, so the first error is the
// first class's; the batch
// runs then run side by side, on up to GOMAXPROCS goroutines, over the
// graph's Flat laid out once before them. The WAL tail is replayed into
// every class — not on a replica, hosted at the checkpoint for its
// follower to submit the tail — and, with verify, each is checked as
// VerifyRecovered does, the checks side by side like the batch runs, the
// Flat laid out again first if one of them recomputes.
// Every class is then hosted on svc with opt at the recovered stream
// position, and the phases set incgraph_startup_seconds{phase}.
// OpenDurable comes after Start; on an error svc may hold some of the
// classes, and is the caller's to close.
func Start(svc *Service, dir string, algos []string, build func(algo string, g *graph.Graph) (Serveable, error),
	input func() (*graph.Graph, error), opt Options, replica, verify bool) (*Recovery, Started, error) {
	var st Started
	var graphT, buildT, restoreT, replayT, verifyT time.Duration
	t := time.Now()
	// lap adds the time since the last lap to *phase.
	lap := func(phase *time.Duration) time.Duration {
		took := time.Since(t)
		*phase += took
		t = t.Add(took)
		return took
	}

	rec := &Recovery{}
	if dir != "" {
		var err error
		if rec, err = loadRecovery(dir); err != nil {
			return nil, st, fmt.Errorf("recovery: %w", err)
		}
	}
	g := rec.cut
	if g == nil {
		var err error
		if g, err = input(); err != nil {
			return nil, st, err
		}
	}
	lap(&graphT)

	targets := make(map[string]Serveable, len(algos))
	st.Build = make([]time.Duration, len(algos))
	var unrun []int // the classes the cut holds no state for, by place in algos
	for i, algo := range algos {
		m, err := build(algo, g)
		if err != nil {
			return nil, st, err
		}
		st.Build[i] = lap(&buildT)
		if state := rec.Algos[algo].State; len(state) > 0 {
			if err := m.RestoreState(bytes.NewReader(state)); err != nil {
				return nil, st, fmt.Errorf("recovery: restore %s: %w", algo, err)
			}
			lap(&restoreT)
		} else {
			unrun = append(unrun, i)
		}
		targets[algo] = m
	}
	// A batch run reads the graph and writes its own class alone.
	fanOut(len(unrun), runtime.GOMAXPROCS(0), func(k int) {
		t := time.Now()
		targets[algos[unrun[k]]].Recompute()
		st.Build[unrun[k]] += time.Since(t)
	})
	lap(&buildT)
	st.Verify = make([]Check, len(algos))
	if dir != "" && !replica {
		if _, err := rec.Replay(targets, svc.Recorder()); err != nil {
			return nil, st, fmt.Errorf("recovery: replay: %w", err)
		}
		lap(&replayT)
		if verify {
			var checks map[string]Check
			checks, st.Diverged = verifyRecovered(targets, svc.Recorder(), runtime.GOMAXPROCS(0))
			for i, algo := range algos {
				st.Verify[i] = checks[algo]
			}
			lap(&verifyT)
		}
	}
	for i := range st.Verify {
		if st.Verify[i].By == "" {
			st.Verify[i].By = "none"
		}
	}

	opt.BaseEpoch, opt.BaseBatches = rec.Base("")
	for _, algo := range algos {
		if _, err := svc.Host(targets[algo], opt); err != nil {
			return nil, st, err
		}
	}
	st.Phases = []StartupPhase{{"graph", graphT}, {"build", buildT}, {"restore", restoreT}, {"replay", replayT}, {"verify", verifyT}}
	for _, p := range st.Phases {
		svc.reg.Gauge("incgraph_startup_seconds",
			"Wall time of each phase of the daemon's start: graph (read or decode), build, restore, replay, verify.",
			obs.L("phase", p.Name)).Set(p.Took.Seconds())
	}
	return rec, st, nil
}

// fanOut calls do(0), …, do(n-1) on min(workers, n) goroutines, or on the
// caller's alone for one, and returns once every call has. Goroutine w
// takes the calls w, w+workers, …: nothing orders one goroutine's calls
// against another's, so the race detector sees any state two calls share.
// A call that panics does not take the process down from its goroutine:
// the first such panic in index order is raised again on the caller's,
// after the others have returned, as it would have been had the calls run
// there.
func fanOut(n, workers int, do func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				func() {
					defer func() { panics[i] = recover() }()
					do(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
