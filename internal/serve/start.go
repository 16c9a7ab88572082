package serve

import (
	"bytes"
	"fmt"
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
// its phases (graph, build, restore, replay, verify), each class's build
// time — its batch run included, if it had one — and how each class was
// verified, both in class-list order, and the classes verification
// corrected, in name order.
type Started struct {
	Phases   []StartupPhase
	Build    []time.Duration
	Verify   []Check
	Diverged []string
}

// Start is the one start sequence of a service, over the classes algos in
// order: the cut of the newest checkpoint in dir, or without one input's
// graph (input is called only then), is the one graph every class is built
// on — the store they share, which each batch advances once for all of
// them (graph.Graph.Advance). build returns a class before any batch run
// (over a Blank maintainer); Start restores the cut's state into it or,
// where the cut holds none, runs its batch algorithm (Recompute) — one of
// the two, never both. The WAL tail is replayed into every class — not on
// a replica, hosted at the checkpoint for its follower to submit the tail
// — and, with verify, each is checked as VerifyRecovered does. Every class
// is then hosted on svc with opt at the recovered stream position, and
// the phases set incgraph_startup_seconds{phase}. OpenDurable comes after
// Start; on an error svc may hold some of the classes, and is the
// caller's to close.
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
	for _, algo := range algos {
		m, err := build(algo, g)
		if err != nil {
			return nil, st, err
		}
		took := lap(&buildT)
		if state := rec.Algos[algo].State; len(state) > 0 {
			if err := m.RestoreState(bytes.NewReader(state)); err != nil {
				return nil, st, fmt.Errorf("recovery: restore %s: %w", algo, err)
			}
			lap(&restoreT)
		} else {
			m.Recompute()
			took += lap(&buildT)
		}
		st.Build = append(st.Build, took)
		targets[algo] = m
	}
	st.Verify = make([]Check, len(algos))
	if dir != "" && !replica {
		if _, err := rec.Replay(targets, svc.Recorder()); err != nil {
			return nil, st, fmt.Errorf("recovery: replay: %w", err)
		}
		lap(&replayT)
		if verify {
			var checks map[string]Check
			checks, st.Diverged = verifyRecovered(targets, svc.Recorder())
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
