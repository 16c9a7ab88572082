package trace

// EngineTracer adapts a Recorder to the fixpoint engine's Tracer hook
// (fixpoint.Tracer — the interface is satisfied structurally, keeping
// this package free of a fixpoint dependency and vice versa). One
// EngineTracer belongs to one maintainer and is driven from its single
// apply-loop goroutine, matching the maintainers' one-writer contract;
// only the recorder it writes into is shared.
//
// Each incremental run renders as a root "inc_run" span containing an
// "h" span (the initial scope function, Fig. 4) and a "resume" span (the
// resumed step function), with one "round" instant event per propagation
// round carrying the frontier size, pops, value changes, and the
// affected-area growth — the per-round view of |AFF|.
type EngineTracer struct {
	rec   *Recorder
	track int32

	// trace is the request trace ID stamped on the next run's spans; set
	// by the serving layer before Apply, from the same goroutine that
	// drives the engine.
	trace TraceID

	runStart   int64
	scopeEnd   int64
	touched    int64
	pushSeeds  int64
	scopeSize  int64
	runs       int64
	roundCount int64
}

// Cat is the category EngineTracer events are emitted under.
const engineCat = "fixpoint"

// NewEngineTracer returns a tracer recording into rec on a fresh track
// named name (typically the algo, e.g. "cc/engine").
func NewEngineTracer(rec *Recorder, name string) *EngineTracer {
	return &EngineTracer{rec: rec, track: rec.Track(name)}
}

// NewEngineTracerOnTrack returns a tracer recording onto an existing
// track, so engine phases nest visually inside the serving layer's batch
// spans for the same algo.
func NewEngineTracerOnTrack(rec *Recorder, track int32) *EngineTracer {
	return &EngineTracer{rec: rec, track: track}
}

// SetTraceID attaches the request trace ID stamped on subsequent runs'
// spans. Call it from the goroutine that drives the engine.
func (t *EngineTracer) SetTraceID(id TraceID) { t.trace = id }

// BeginRun implements fixpoint.Tracer.
func (t *EngineTracer) BeginRun(touched, pushSeeds int) {
	t.runStart = t.rec.Now()
	t.touched = int64(touched)
	t.pushSeeds = int64(pushSeeds)
	t.runs++
	t.roundCount = 0
}

// ScopeDone implements fixpoint.Tracer: the initial scope function h
// finished, producing H⁰ of the given size.
func (t *EngineTracer) ScopeDone(hPops, hResets, scopeSize int64) {
	now := t.rec.Now()
	t.scopeEnd = now
	t.scopeSize = scopeSize
	ev := Event{
		Name: "h", Cat: engineCat, Phase: PhaseComplete,
		Track: t.track, TS: t.runStart, Dur: now - t.runStart, Trace: t.trace,
	}
	ev.AddArg("h_pops", hPops)
	ev.AddArg("h_resets", hResets)
	ev.AddArg("scope_size", scopeSize)
	ev.AddArg("touched", t.touched)
	t.rec.Emit(ev)
}

// Round implements fixpoint.Tracer: one propagation round of the resumed
// step function completed.
func (t *EngineTracer) Round(round int, frontier, pops, changes, affGrowth int64) {
	t.roundCount++
	ev := Event{
		Name: "round", Cat: engineCat, Phase: PhaseInstant,
		Track: t.track, TS: t.rec.Now(), Trace: t.trace,
	}
	ev.AddArg("round", int64(round))
	ev.AddArg("frontier", frontier)
	ev.AddArg("pops", pops)
	ev.AddArg("changes", changes)
	ev.AddArg("aff_growth", affGrowth)
	t.rec.Emit(ev)
}

// EndRun implements fixpoint.Tracer: the resumed step function drained.
func (t *EngineTracer) EndRun(pops, changes int64) {
	now := t.rec.Now()
	resume := Event{
		Name: "resume", Cat: engineCat, Phase: PhaseComplete,
		Track: t.track, TS: t.scopeEnd, Dur: now - t.scopeEnd, Trace: t.trace,
	}
	resume.AddArg("pops", pops)
	resume.AddArg("changes", changes)
	resume.AddArg("rounds", t.roundCount)
	t.rec.Emit(resume)

	root := Event{
		Name: "inc_run", Cat: engineCat, Phase: PhaseComplete,
		Track: t.track, TS: t.runStart, Dur: now - t.runStart, Trace: t.trace,
	}
	root.AddArg("run", t.runs)
	root.AddArg("touched", t.touched)
	root.AddArg("push_seeds", t.pushSeeds)
	root.AddArg("scope_size", t.scopeSize)
	t.rec.Emit(root)
}
