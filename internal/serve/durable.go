package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/obs"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// This file is the durability layer of the service: a write-ahead log of
// every ingested batch plus periodic checkpoints of each maintainer's
// graph and incremental state. The invariant it maintains is
//
//	acknowledged  ⊆  durable(checkpoint state ∪ WAL tail)
//
// so a kill -9 at any moment loses nothing that was acknowledged (under
// fsync=always), and recovery reconstructs exactly the state a
// from-scratch batch run over the durable prefix would produce.
//
// Recovery is three phases, in LoadRecovery / Recovery.Replay /
// VerifyRecovered:
//
//  1. restore: the latest valid checkpoint supplies each algorithm's
//     graph (binary codec) and incremental state (the adapter's gob
//     envelope) — timestamps, intervals, and component ids survive, so
//     the restored maintainer repairs future batches with the same
//     anchor order <_C it would have had without the restart;
//  2. replay: the WAL tail (segments at or after the checkpoint's
//     ReplayFrom) re-applies every update the checkpoint had not
//     absorbed, through the normal incremental Apply path;
//  3. verify: each maintainer's replayed answer is compared against a
//     batch recompute over the recovered graph. Divergence — which the
//     design treats as a bug, not an expected state — is counted,
//     exposed as a gauge, and self-corrected by keeping the recomputed
//     answer.

// stateEnvelope wraps an adapter's PersistState blob with the host's
// stream accounting, so a recovered host resumes its epoch counters.
type stateEnvelope struct {
	Epoch   uint64
	Batches uint64
	State   []byte
}

// RecoveredAlgo is one algorithm's slice of a loaded checkpoint: the
// decoded graph to build the maintainer on, the state blob to restore
// into it, and the stream position the checkpoint represents.
type RecoveredAlgo struct {
	Name    string
	Graph   *graph.Graph
	State   []byte
	Epoch   uint64
	Batches uint64
}

// Recovery is a loaded (possibly empty) checkpoint plus the WAL position
// to replay from.
type Recovery struct {
	dir string
	// Algos maps algo name to its recovered state; empty when no valid
	// checkpoint exists (fresh start or all checkpoints corrupt).
	Algos map[string]RecoveredAlgo
	// ReplayFrom is the first WAL segment not covered by the checkpoint;
	// 0 replays everything.
	ReplayFrom uint64
	// CheckpointEpoch is the loaded checkpoint's epoch sum, 0 if none.
	CheckpointEpoch uint64

	replayedRaw     map[string]uint64
	replayedRecords map[string]uint64
	// Replayed is the total WAL records re-applied by Replay.
	Replayed int
}

// LoadRecovery loads the newest valid checkpoint in dir (scanning past
// corrupt ones) and decodes each algorithm's graph and state envelope.
// With no usable checkpoint it returns an empty Recovery that replays
// the WAL from the beginning.
func LoadRecovery(dir string) (*Recovery, error) {
	r := &Recovery{
		dir:             dir,
		Algos:           make(map[string]RecoveredAlgo),
		replayedRaw:     make(map[string]uint64),
		replayedRecords: make(map[string]uint64),
	}
	ck, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ck == nil {
		return r, nil
	}
	r.ReplayFrom = ck.ReplayFrom
	r.CheckpointEpoch = ck.Epoch
	for _, a := range ck.Algos {
		g, err := graph.ReadBinary(bytes.NewReader(a.Graph))
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint graph for %s: %w", a.Name, err)
		}
		var env stateEnvelope
		if err := gob.NewDecoder(bytes.NewReader(a.State)).Decode(&env); err != nil {
			return nil, fmt.Errorf("serve: checkpoint state for %s: %w", a.Name, err)
		}
		r.Algos[a.Name] = RecoveredAlgo{
			Name: a.Name, Graph: g, State: env.State,
			Epoch: env.Epoch, Batches: env.Batches,
		}
	}
	return r, nil
}

// Restore installs the recovered state into a serveable built on the
// recovered graph. No-op (nil) when the checkpoint did not cover algo.
func (r *Recovery) Restore(algo string, m Serveable) error {
	ra, ok := r.Algos[algo]
	if !ok {
		return nil
	}
	return m.RestoreState(bytes.NewReader(ra.State))
}

// Replay streams the WAL tail into the targets: every record reaches
// every serveable. Called before the hosts start, so it drives Apply
// directly — single-threaded, which honors the one-writer contract. Each
// record is coalesced with Net once, as the serving path would have (the
// targets must agree on directedness, which is checked up front), and
// validated as it would have been: a record that fails Batch.Validate
// against a target, or that is targeted at one class (wal.Record.Algo, which
// only logs from before updates stopped being targeted can hold), stops the
// replay with an error naming its segment and record, and reaches no
// target.
func (r *Recovery) Replay(targets map[string]Serveable, rec *trace.Recorder) (int, error) {
	kinds := make(map[bool]bool, 2) // the directedness values among the targets
	for _, m := range targets {
		kinds[m.Graph().Directed()] = true
	}
	if len(kinds) > 1 {
		return 0, fmt.Errorf("serve: replay targets mix directed and undirected graphs")
	}
	directed := kinds[true]
	var span trace.Span
	if rec != nil {
		span = rec.Begin("recovery_replay", "serve", rec.Track("recovery"))
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
		for name, m := range targets {
			m.Apply(net)
			r.replayedRaw[name] += uint64(len(record.Batch))
			r.replayedRecords[name]++
		}
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

// Base returns the stream position a recovered host should resume from:
// the checkpoint's accounting plus what Replay re-applied.
func (r *Recovery) Base(algo string) (epoch, batches uint64) {
	ra := r.Algos[algo]
	return ra.Epoch + r.replayedRaw[algo], ra.Batches + r.replayedRecords[algo]
}

// VerifyRecovered checks each recovered maintainer against a batch
// recompute over its recovered graph — the recompute-equality oracle of
// the crash-recovery acceptance test, run on every startup because it is
// cheap relative to the initial batch run the maintainers already paid.
// The recomputed answer is kept (self-correcting), and the names of
// divergent algos are returned for the divergence gauge. Call after
// Replay, before hosting.
func VerifyRecovered(targets map[string]Serveable, rec *trace.Recorder) []string {
	var divergent []string
	for name, m := range targets {
		var span trace.Span
		if rec != nil {
			span = rec.Begin("recovery_verify", "serve", rec.Track("recovery"))
		}
		before := m.Snapshot()
		m.Recompute()
		after := m.Snapshot()
		// Paged vectors make this cheap and exact: Update shares every
		// page the recompute left equal (pointer-equal, which DeepEqual
		// short-circuits on) and copies a page only where content differs.
		ok := reflect.DeepEqual(before, after)
		if !ok {
			divergent = append(divergent, name)
		}
		if rec != nil {
			span.Arg("diverged", boolArg(!ok))
			span.End()
		}
	}
	return divergent
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

// keptCheckpoint is a retained checkpoint: the epoch sum its file is
// named by, and the first segment it replays from.
type keptCheckpoint struct{ epoch, replayFrom uint64 }

// OpenDurable opens (or creates) the WAL in dir, installs the durable
// ingest path on svc, and registers the durability metrics. Recovery
// (LoadRecovery / Replay / VerifyRecovered) must have happened first:
// Open truncates the torn tail of the last segment and appends after it.
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
	d.durableEpoch = reg.Gauge("incgraph_durable_epoch", "Epoch sum covered by the last checkpoint.")
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

// Ingest implements Journal: append the batch to the WAL (durable before
// acknowledged, under fsync=always), then submit it to every target. The
// read lock spans both, so a checkpoint cut can never fall between them.
// Waiting for application happens after the lock is released — a
// checkpoint may proceed while callers wait on their acks. A non-empty
// algo is refused before anything is logged: every update reaches every
// class.
func (d *Durable) Ingest(targets []*Host, algo string, b graph.Batch, tid trace.TraceID, wait bool) error {
	if algo != "" {
		return fmt.Errorf("serve: update targeted at %q: every update reaches every class", algo)
	}
	d.mu.RLock()
	// The record carries the request's trace ID and a wall-clock stamp,
	// so a replica replaying this log can join the request's timeline and
	// report seconds-behind-primary.
	if err := d.log.Append(wal.Record{Batch: b, Trace: tid, Nanos: time.Now().UnixNano()}); err != nil {
		d.mu.RUnlock()
		return err
	}
	acks := make([]<-chan struct{}, 0, len(targets))
	for _, h := range targets {
		ack, err := h.Submit(b, tid)
		if err != nil {
			d.mu.RUnlock()
			return err
		}
		acks = append(acks, ack)
	}
	d.mu.RUnlock()
	if wait {
		for _, ack := range acks {
			<-ack
		}
	}
	if n := d.ingests.Add(1); d.opt.CheckpointEvery > 0 && n%uint64(d.opt.CheckpointEvery) == 0 {
		d.ckptWG.Add(1)
		go func() {
			defer d.ckptWG.Done()
			d.checkpointAsync()
		}()
	}
	return nil
}

func (d *Durable) checkpointAsync() {
	if !d.checkpointing.CompareAndSwap(false, true) {
		return // one checkpoint at a time; the next trigger retries
	}
	defer d.checkpointing.Store(false)
	if err := d.Checkpoint(); err != nil {
		d.ckptErrors.Inc()
	}
}

// Checkpoint takes a consistent cut: block new ingests, serialize every
// host's graph and state from inside its apply loop (the WithState job
// queues behind everything already accepted, so the cut covers exactly
// the records appended so far), rotate the WAL, and atomically write the
// checkpoint whose ReplayFrom is the fresh segment. Old checkpoints and
// fully-covered segments are pruned afterwards.
//
// A degraded host's state is checkpointed as-is: its stale answer may
// trail its graph, which the recovery verification detects and repairs
// by recompute.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	ck := &wal.Checkpoint{}
	for _, h := range d.svc.Hosts() {
		h := h
		var as wal.AlgoState
		err := h.WithState(func(m Serveable) error {
			var gbuf bytes.Buffer
			if err := m.Graph().WriteBinary(&gbuf); err != nil {
				return err
			}
			var sbuf bytes.Buffer
			if err := m.PersistState(&sbuf); err != nil {
				return err
			}
			st := h.Stats()
			var env bytes.Buffer
			if err := gob.NewEncoder(&env).Encode(stateEnvelope{
				Epoch: st.UpdatesApplied, Batches: st.BatchesApplied, State: sbuf.Bytes(),
			}); err != nil {
				return err
			}
			as = wal.AlgoState{Name: h.Algo(), Graph: gbuf.Bytes(), State: env.Bytes()}
			ck.Epoch += st.UpdatesApplied
			return nil
		})
		if err != nil {
			return fmt.Errorf("serve: checkpointing %s: %w", h.Algo(), err)
		}
		ck.Algos = append(ck.Algos, as)
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
// shutdown) after a final Checkpoint, but before Service.Close — the
// final checkpoint needs live apply loops.
func (d *Durable) Close() error {
	d.svc.SetJournal(nil)
	d.ckptWG.Wait()
	return d.log.Close()
}
