package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// This file is the durability layer of the service: a write-ahead log of
// every ingested batch plus periodic checkpoints of the one graph and each
// maintainer's incremental state. The invariant it maintains is
//
//	acknowledged  ⊆  durable(checkpoint state ∪ WAL tail)
//
// so a kill -9 at any moment loses nothing that was acknowledged (under
// fsync=always), and recovery reconstructs exactly the state a
// from-scratch batch run over the durable prefix would produce.
//
// Recovery is three phases, all run by Start (start.go), which builds
// each class on the cut's graph and hosts the classes after the last:
//
//  1. restore: the latest valid checkpoint supplies the cut's graph
//     (binary codec), its stream position, and each class's incremental
//     state (state.go's codec; upgradeV2 converts a v2 file's gob) —
//     timestamps, intervals, and component ids survive, so the restored
//     maintainer repairs future batches with the same anchor order <_C it
//     would have had without the restart;
//  2. replay: the WAL tail (segments at or after the checkpoint's
//     ReplayFrom) re-applies every update the checkpoint had not
//     absorbed, through the serving path's step (Advance, then Apply);
//  3. verify: each maintainer's replayed state is checked — by its
//     certificate where the class has one (sssp, cc: see certifier),
//     which reads the graph and runs no batch algorithm, and
//     otherwise by comparing its answer with a batch recompute over the
//     recovered graph. Divergence — which the design treats as a bug,
//     not an expected state — is counted, exposed as a gauge, and
//     self-corrected by keeping the recomputed answer.

// RecoveredAlgo is one class's slice of a loaded checkpoint: the graph to
// build the maintainer on — from LoadRecovery a private copy of the cut's,
// for a caller that builds each class on a graph of its own — and the
// state blob to restore into it.
type RecoveredAlgo struct {
	Graph *graph.Graph
	State []byte
}

// Recovery is a loaded (possibly empty) checkpoint plus the WAL position
// to replay from.
type Recovery struct {
	dir string
	// Algos maps algo name to its recovered state (no State for a class
	// quarantined at the cut); empty when no valid checkpoint exists
	// (fresh start or all checkpoints corrupt).
	Algos map[string]RecoveredAlgo
	// ReplayFrom is the first WAL segment not covered by the checkpoint;
	// 0 replays everything.
	ReplayFrom uint64
	// CheckpointEpoch is the loaded checkpoint's stream epoch, 0 if none.
	CheckpointEpoch uint64
	batches         uint64
	// cut is the checkpoint's graph, which Start builds every class on.
	cut *graph.Graph

	replayedRaw uint64
	// Replayed is the total WAL records re-applied by Replay.
	Replayed int
}

// upgradeV2 converts class algo's state in a v2 checkpoint, a gob struct of
// classState's fields, to the state codec once, on load; the next
// checkpoint is v3 and its prune retires the v2 file. No other serve code
// reads gob. A bc state from before the per-node partition has no Block:
// it comes back empty, and Start rebuilds bc by a batch run.
func upgradeV2(algo string, blob []byte) ([]byte, error) {
	var st classState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return nil, fmt.Errorf("serve: v2 checkpoint state for %s: %w", algo, err)
	} else if algo == "bc" && st.Block == nil {
		return nil, nil
	}
	return appendState(nil, stateVecs(algo), &st), nil
}

// LoadRecovery loads the newest valid checkpoint in dir (scanning past
// corrupt ones) and decodes its graph once: each class it holds state for
// gets a private copy, the last the decoded graph itself, for a caller
// that builds every class on a graph of its own (Start shares the one
// graph instead). With no usable checkpoint it returns an empty Recovery
// that replays the WAL from the beginning.
func LoadRecovery(dir string) (*Recovery, error) {
	r, err := loadRecovery(dir)
	if err != nil {
		return r, err
	}
	k := 0
	for name, a := range r.Algos {
		if k++; k < len(r.Algos) {
			a.Graph = a.Graph.Clone()
			r.Algos[name] = a
		}
	}
	return r, nil
}

// loadRecovery is LoadRecovery with the cut's graph shared: every class of
// Algos holds the decoded graph itself.
func loadRecovery(dir string) (*Recovery, error) {
	r := &Recovery{dir: dir, Algos: make(map[string]RecoveredAlgo)}
	ck, err := wal.LatestCheckpoint(dir)
	if err != nil || ck == nil {
		return r, err
	}
	if r.cut, err = graph.ReadBinary(bytes.NewReader(ck.Graph)); err != nil {
		return nil, fmt.Errorf("serve: checkpoint graph: %w", err)
	}
	r.ReplayFrom, r.CheckpointEpoch, r.batches = ck.ReplayFrom, ck.Epoch, ck.Batches
	for _, a := range ck.Algos {
		if ck.V2 && len(a.State) > 0 {
			if a.State, err = upgradeV2(a.Name, a.State); err != nil {
				return nil, err
			}
		}
		r.Algos[a.Name] = RecoveredAlgo{Graph: r.cut, State: a.State}
	}
	return r, nil
}

// Restore installs the recovered state into a serveable built on the
// recovered graph. No-op (nil) when the checkpoint holds no state for algo.
func (r *Recovery) Restore(algo string, m Serveable) error {
	ra := r.Algos[algo]
	if len(ra.State) == 0 {
		return nil
	}
	return m.RestoreState(bytes.NewReader(ra.State))
}

// Replay streams the WAL tail into the targets: every record reaches
// every serveable. Called before the hosts start, so it is the rounds' one
// writer, as the loop is later, and stages each record as the loop does
// (stage: each distinct graph of the targets advanced once); then every
// target repairs (Apply). Each record is coalesced with Net once, as the
// serving path would have (the targets must agree on directedness, which
// is checked up front), and validated as it would have been: a record
// that fails Batch.Validate against a target, or that is targeted at one
// class (wal.Record.Algo, which only logs from before updates stopped
// being targeted can hold), stops the replay with an error naming its
// segment and record, and reaches no target.
func (r *Recovery) Replay(targets map[string]Serveable, rec *trace.Recorder) (int, error) {
	var ms []Serveable
	for _, m := range targets {
		if ms = append(ms, m); m.Graph().Directed() != ms[0].Graph().Directed() {
			return 0, fmt.Errorf("serve: replay targets mix directed and undirected graphs")
		}
	}
	directed := len(ms) > 0 && ms[0].Graph().Directed()
	var span trace.Span
	var track int32
	if rec != nil {
		track = rec.Track("recovery")
		span = rec.Begin("recovery_replay", "serve", track)
	}
	n, err := wal.Replay(r.dir, r.ReplayFrom, func(record wal.Record) error {
		if err := record.CheckBroadcast(); err != nil {
			return err
		}
		for name, m := range targets {
			if err := record.Batch.Validate(m.Graph().NumNodes()); err != nil {
				return fmt.Errorf("for %s: %w", name, err)
			}
		}
		net := record.Batch.Net(directed)
		stage(ms, Serveable.Graph, net)
		for _, m := range ms {
			m.Apply(net)
		}
		r.replayedRaw += uint64(len(record.Batch))
		return nil
	})
	r.Replayed = n
	if rec != nil {
		span.Arg("records", int64(n))
		span.Arg("from_segment", int64(r.ReplayFrom))
		span.End()
	}
	return n, err
}

// Base returns the stream position a recovered host resumes from: the
// checkpoint's plus what Replay re-applied. It is the same for every
// class; algo is unused.
func (r *Recovery) Base(algo string) (epoch, batches uint64) {
	return r.CheckpointEpoch + r.replayedRaw, r.batches + uint64(r.Replayed)
}

// Check is how a start verified one recovered class: By "certificate",
// "recompute" or "none" (verification off, a replica, or nothing
// recovered), how long it Took, and whether the class Diverged — and was
// recomputed. Err is the certificate's failure.
type Check struct {
	By       string
	Took     time.Duration
	Diverged bool
	Err      error
}

// VerifyRecovered checks each recovered maintainer, one at a time, in name
// order: a class with a certificate (certifier) by it, keeping the
// restored state when it holds, and every other class — or one whose
// certificate fails — against a batch recompute over its recovered graph,
// the recompute-equality oracle of the crash-recovery acceptance test.
// The recomputed answer is kept (self-correcting), and the names of
// divergent algos are returned, in name order, for the divergence gauge.
// Call after Replay, before hosting.
func VerifyRecovered(targets map[string]Serveable, rec *trace.Recorder) []string {
	_, divergent := verifyRecovered(targets, rec, 1)
	return divergent
}

// verifyRecovered is VerifyRecovered, on up to workers goroutines, with
// each class's Check. Side by side, classes that share a graph only read
// it: each check writes its own class alone.
func verifyRecovered(targets map[string]Serveable, rec *trace.Recorder, workers int) (map[string]Check, []string) {
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	slices.Sort(names)
	checks := make([]Check, len(names))
	fanOut(len(names), workers, func(i int) { checks[i] = verifyClass(targets[names[i]], rec) })
	byName := make(map[string]Check, len(names))
	var divergent []string
	for i, name := range names {
		if checks[i].Diverged {
			divergent = append(divergent, name)
		}
		byName[name] = checks[i]
	}
	return byName, divergent
}

// verifyClass checks one class (see VerifyRecovered and Host.Verify), in
// a span on rec if it is not nil.
func verifyClass(m Serveable, rec *trace.Recorder) Check {
	start := time.Now()
	var span trace.Span
	if rec != nil {
		span = rec.Begin("recovery_verify", "serve", rec.Track("recovery"))
	}
	c := Check{By: "recompute"}
	if ct, ok := m.(certifier); ok {
		if has, err := ct.Certify(); has {
			c.By, c.Err, c.Diverged = "certificate", err, err != nil
			if c.Diverged {
				m.Recompute()
			}
		}
	}
	if c.By == "recompute" {
		before := m.Snapshot()
		m.Recompute()
		// Paged vectors make this cheap and exact: Update shares every
		// page the recompute left equal (pointer-equal, which DeepEqual
		// short-circuits on) and copies a page only where content differs.
		c.Diverged = !reflect.DeepEqual(before, m.Snapshot())
	}
	c.Took = time.Since(start)
	if rec != nil {
		span.Arg("diverged", boolArg(c.Diverged))
		span.Arg("certificate", boolArg(c.By == "certificate"))
		span.End()
	}
	return c
}

// DurableOptions tune the durability layer.
type DurableOptions struct {
	// WAL configures the log (fsync policy, segment size, fault hooks).
	WAL wal.Options
	// CheckpointEvery takes a checkpoint after this many ingested
	// batches; 0 means manual checkpoints only (Checkpoint / shutdown).
	CheckpointEvery int
}

// keepCheckpoints is how many checkpoints are retained: with two, a
// checkpoint corrupted in place still leaves a recovery path.
const keepCheckpoints = 2

// Durable owns a service's WAL and checkpoints and implements Journal:
// installed on a Service, it write-ahead-logs every POST /update batch
// before submission, atomically with respect to checkpoint cuts.
type Durable struct {
	dir string
	log *wal.Log
	svc *Service
	opt DurableOptions

	// mu makes append+submit atomic against the checkpoint cut: Ingest
	// holds the read side across both, Checkpoint the write side while it
	// drains the hosts and rotates the log. Without it a batch could land
	// in a pre-rotation segment but miss the checkpointed state — and be
	// skipped by replay after a restart.
	mu sync.RWMutex

	ingests       atomic.Uint64
	checkpointing atomic.Bool
	// ckptWG tracks in-flight async checkpoints so Close can wait for
	// them instead of closing the log out from under one.
	ckptWG sync.WaitGroup

	// kept lists the retained checkpoints, oldest first, so segment
	// pruning never removes a segment a kept checkpoint still needs.
	kept []keptCheckpoint

	checkpoints   *obs.Counter
	ckptErrors    *obs.Counter
	ckptSeconds   *obs.Gauge
	durableEpoch  *obs.Gauge
	divergence    *obs.Gauge
	replayedGauge *obs.Gauge
}

// keptCheckpoint is a retained checkpoint: the stream epoch its file is
// named by, and the first segment it replays from.
type keptCheckpoint struct{ epoch, replayFrom uint64 }

// OpenDurable opens (or creates) the WAL in dir, installs the durable
// ingest path on svc, and registers the durability metrics. Start must
// have run first: Open truncates the torn tail of the last segment and
// appends after it.
func OpenDurable(svc *Service, dir string, opt DurableOptions) (*Durable, error) {
	log, err := wal.Open(dir, opt.WAL)
	if err != nil {
		return nil, err
	}
	d := &Durable{dir: dir, log: log, svc: svc, opt: opt}
	if ck, err := wal.LatestCheckpoint(dir); err == nil && ck != nil {
		// Seed the pruning window so segments needed by the pre-restart
		// checkpoint survive until enough new checkpoints supersede it.
		d.kept = append(d.kept, keptCheckpoint{ck.Epoch, ck.ReplayFrom})
	}
	reg := svc.Registry()
	reg.GaugeFunc("incgraph_wal_appends_total", "Records appended to the write-ahead log.",
		func() float64 { a, _ := log.Stats(); return float64(a) })
	reg.GaugeFunc("incgraph_wal_fsyncs_total", "Fsyncs issued by the write-ahead log (group-committed).",
		func() float64 { _, s := log.Stats(); return float64(s) })
	reg.GaugeFunc("incgraph_wal_active_segment", "Sequence number of the active WAL segment.",
		func() float64 { return float64(log.ActiveSeq()) })
	d.checkpoints = reg.Counter("incgraph_checkpoints_total", "Checkpoints written.")
	d.ckptErrors = reg.Counter("incgraph_checkpoint_errors_total", "Checkpoint attempts that failed.")
	d.ckptSeconds = reg.Gauge("incgraph_checkpoint_seconds", "Wall time of the last checkpoint.")
	d.durableEpoch = reg.Gauge("incgraph_durable_epoch", "Stream epoch covered by the last checkpoint.")
	d.divergence = reg.Gauge("incgraph_recovery_divergence", "Algos whose replayed state diverged from batch recompute at the last recovery.")
	d.replayedGauge = reg.Gauge("incgraph_recovery_replayed_records", "WAL records replayed at the last recovery.")
	svc.SetJournal(d)
	return d, nil
}

// RecordRecovery publishes the outcome of the startup recovery on the
// durability gauges.
func (d *Durable) RecordRecovery(replayed, divergent int) {
	d.replayedGauge.Set(float64(replayed))
	d.divergence.Set(float64(divergent))
}

// Log exposes the underlying WAL (tests and the daemon's drain path).
func (d *Durable) Log() *wal.Log { return d.log }

// Ingest implements Journal: submit the batch to the service, appending it
// to the WAL (durable before acknowledged, under fsync=always) once the
// submit's checks pass, so an error means neither accepted nor logged. The
// read lock spans both, so a checkpoint cut can never fall between them.
// Callers wait for application after the lock is released. targets is
// unused, and a non-empty algo is refused before anything is logged:
// every update reaches every class.
func (d *Durable) Ingest(targets []*Host, algo string, b graph.Batch, tid trace.TraceID, wait bool) error {
	if algo != "" {
		return fmt.Errorf("serve: update targeted at %q: every update reaches every class", algo)
	}
	d.mu.RLock()
	ack, err := d.svc.submit(b, tid, func() error {
		// The trace ID and wall-clock stamp let a replica join the
		// request's timeline and report seconds-behind-primary.
		return d.log.Append(wal.Record{Batch: b, Trace: tid, Nanos: time.Now().UnixNano()})
	})
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	if wait {
		<-ack
	}
	if n := d.ingests.Add(1); d.opt.CheckpointEvery > 0 && n%uint64(d.opt.CheckpointEvery) == 0 {
		d.ckptWG.Add(1)
		go func() {
			defer d.ckptWG.Done()
			// One checkpoint at a time; the next trigger retries. A failure
			// is counted on incgraph_checkpoint_errors_total.
			if d.checkpointing.CompareAndSwap(false, true) {
				d.Checkpoint()
				d.checkpointing.Store(false)
			}
		}()
	}
	return nil
}

// Checkpoint takes a consistent cut: block new ingests, serialize the
// graph, the stream position and every class's state in one job of the
// service's apply loop (it queues behind everything already accepted, so
// the cut covers exactly the records appended so far), rotate the WAL, and
// atomically write the checkpoint whose ReplayFrom is the fresh segment.
// Old checkpoints and fully-covered segments are pruned afterwards. The
// graph is written once, before the classes, whatever their state: the
// loop advances it by every batch, quarantined classes or not. A
// quarantined host's state trails the stream and is not written (recovery
// rebuilds the class by a batch run). Failures count on
// incgraph_checkpoint_errors_total.
func (d *Durable) Checkpoint() (err error) {
	defer func() {
		if err != nil {
			d.ckptErrors.Inc()
		}
	}()
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	ck := &wal.Checkpoint{}
	err = d.svc.withState(func() error {
		hosts := d.svc.Hosts()
		var g bytes.Buffer
		if err := hosts[0].m.Graph().WriteBinary(&g); err != nil {
			return fmt.Errorf("serve: checkpointing the graph: %w", err)
		}
		ck.Graph = g.Bytes()
		for _, h := range hosts {
			if h.quarantined {
				ck.Algos = append(ck.Algos, wal.AlgoState{Name: h.algo})
				continue
			}
			var state bytes.Buffer
			if err := h.m.PersistState(&state); err != nil {
				return fmt.Errorf("serve: checkpointing %s: %w", h.algo, err)
			}
			ck.Algos = append(ck.Algos, wal.AlgoState{Name: h.algo, State: state.Bytes()})
		}
		at := d.svc.stream.pos()
		ck.Epoch, ck.Batches = at.epoch, at.batches
		return nil
	})
	if err != nil {
		return err
	}
	replayFrom, err := d.log.Rotate()
	if err != nil {
		return err
	}
	ck.ReplayFrom = replayFrom
	if _, err := wal.WriteCheckpoint(d.dir, ck); err != nil {
		return err
	}
	if err := wal.PruneCheckpoints(d.dir, keepCheckpoints); err != nil {
		return err
	}
	if n := len(d.kept); n > 0 && d.kept[n-1].epoch == ck.Epoch {
		// Nothing was ingested since the last checkpoint: this one has its
		// name and replaced its file, so it replaces its entry too, and
		// the older kept checkpoint keeps the segments it replays from.
		d.kept[n-1].replayFrom = replayFrom
	} else {
		d.kept = append(d.kept, keptCheckpoint{ck.Epoch, replayFrom})
	}
	if len(d.kept) > keepCheckpoints {
		d.kept = d.kept[len(d.kept)-keepCheckpoints:]
	}
	if len(d.kept) >= keepCheckpoints {
		// Every kept checkpoint replays from d.kept[0].replayFrom or later;
		// older segments are dead weight.
		if err := d.log.RemoveBefore(d.kept[0].replayFrom); err != nil {
			return err
		}
	}
	d.checkpoints.Inc()
	d.durableEpoch.Set(float64(ck.Epoch))
	d.ckptSeconds.Set(time.Since(start).Seconds())
	return nil
}

// Close uninstalls the journal and closes the WAL. Call after the HTTP
// server stopped accepting updates and (for a checkpoint-on-drain
// shutdown) after a final Checkpoint; that checkpoint must come before
// Service.Close, since it needs a live apply loop.
func (d *Durable) Close() error {
	d.svc.SetJournal(nil)
	d.ckptWG.Wait()
	return d.log.Close()
}
