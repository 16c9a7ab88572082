// Package trace is the span/event tracing layer of the serving stack: a
// low-overhead flight recorder that keeps the most recent spans and
// instant events of the fixpoint engine and the serving layer in a
// bounded ring, dumps them as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing), and carries W3C trace-context IDs so one
// request's path — HTTP handler → submission queue → coalesced batch →
// engine phases — can be followed across layers.
//
// Where internal/obs answers "how much, in aggregate" (counters,
// histograms), this package answers "what happened, in order, for this
// batch": the scope-function phase h versus the resumed step function,
// and how each propagation round grew the affected area — the per-round
// view of the paper's |AFF| that aggregate metrics cannot show.
//
// Recording is designed for the apply hot path: an Event is a fixed-size
// value (no maps, no interfaces, integer-only args), Emit copies it into
// a preallocated ring under one short mutex, and all rendering cost
// (hex encoding, JSON) is paid at dump time, not at record time.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/obs"
)

// TraceID is a W3C trace-context trace ID: 16 bytes, all-zero meaning
// "absent".
type TraceID [16]byte

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders t as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is a W3C trace-context parent/span ID: 8 bytes.
type SpanID [8]byte

// String renders s as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idSeed and idCounter drive ID generation: one crypto/rand read at
// startup, then a cheap counter mix per ID. Trace IDs need uniqueness,
// not unpredictability.
var (
	idSeed    [16]byte
	idCounter atomic.Uint64
)

func init() {
	if _, err := rand.Read(idSeed[:]); err != nil {
		// Degrade to time-based uniqueness; tracing must never take the
		// process down.
		binary.LittleEndian.PutUint64(idSeed[:8], uint64(time.Now().UnixNano()))
	}
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	copy(t[:], idSeed[:])
	c := idCounter.Add(1)
	binary.LittleEndian.PutUint64(t[8:], binary.LittleEndian.Uint64(idSeed[8:])^mix(c))
	if t.IsZero() {
		t[0] = 1
	}
	return t
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], binary.LittleEndian.Uint64(idSeed[:8])^mix(idCounter.Add(1)))
	if s == (SpanID{}) {
		s[0] = 1
	}
	return s
}

// mix is splitmix64, scattering the counter across all bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Event phases, following the Chrome trace_event format.
const (
	// PhaseComplete is a span with a start and a duration (ph "X").
	PhaseComplete = 'X'
	// PhaseInstant is a point event (ph "i").
	PhaseInstant = 'i'
)

// maxArgs is the fixed argument capacity of an Event; keeping it inline
// keeps Emit allocation-free.
const maxArgs = 6

// Arg is one integer annotation on an event. Keys must be constant
// strings; values are raw int64 (counts, sizes, nanoseconds).
type Arg struct {
	Key string
	Val int64
}

// Event is one flight-recorder entry: a complete span or an instant
// event on a track. It is a plain value — building and emitting one does
// not allocate.
type Event struct {
	// Name identifies the span or event kind ("h", "resume", "round", …).
	Name string
	// Cat groups events for filtering in the viewer ("fixpoint", "serve").
	Cat string
	// Phase is PhaseComplete or PhaseInstant.
	Phase byte
	// Track is the logical thread the event renders on (one per hosted
	// algo); register names with Recorder.Track.
	Track int32
	// TS is the event start in nanoseconds since the recorder's epoch.
	TS int64
	// Dur is the span duration in nanoseconds (PhaseComplete only).
	Dur int64
	// Trace correlates the event with one request's W3C trace ID; zero
	// means unattributed.
	Trace TraceID
	// Args holds the first NArgs integer annotations.
	Args  [maxArgs]Arg
	NArgs int
}

// AddArg appends an annotation, dropping it silently once the fixed
// capacity is reached (tracing must never grow the event).
func (e *Event) AddArg(key string, val int64) {
	if e.NArgs < maxArgs {
		e.Args[e.NArgs] = Arg{Key: key, Val: val}
		e.NArgs++
	}
}

// Recorder is the bounded flight recorder: the most recent events, a
// monotone clock epoch, and the track-name table. All methods are safe
// for concurrent use.
type Recorder struct {
	start time.Time
	ring  *obs.Ring[Event]

	mu      sync.Mutex
	tracks  []string // tracks[i] is the name of track i+1 (track 0 is unnamed)
	process string   // process identity stamped into exports ("" = "incgraph")
}

// NewRecorder returns a recorder retaining the last n events.
func NewRecorder(n int) *Recorder {
	return NewRecorderAt(time.Now(), n)
}

// NewRecorderAt returns a recorder with an explicit clock epoch —
// recorder timestamps are nanoseconds since start. Tests use a fixed
// epoch for deterministic exports; production code uses NewRecorder.
func NewRecorderAt(start time.Time, n int) *Recorder {
	return &Recorder{start: start, ring: obs.NewRing[Event](n)}
}

// SetProcess names the process identity this recorder belongs to
// ("router", "shard-0", "replica-0"). The name renders as the process
// name in trace viewers and keys the per-process timeline when dumps
// from several cluster members are merged with MergeTraceEvents.
func (r *Recorder) SetProcess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.process = name
}

// Now returns the current recorder timestamp (nanoseconds since the
// recorder's epoch).
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// At converts an absolute time to a recorder timestamp.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.start)) }

// Track registers a named track and returns its id, for stamping into
// Event.Track. The name renders as the thread name in trace viewers.
func (r *Recorder) Track(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return int32(len(r.tracks))
}

// Emit records ev. If ev.TS is zero it is stamped with the current time
// (instant events); complete spans should carry their own start.
func (r *Recorder) Emit(ev Event) {
	if ev.TS == 0 {
		ev.TS = r.Now()
	}
	r.ring.Push(ev)
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event { return r.ring.Snapshot() }

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.ring.Len() }

// Span is an in-progress complete event. It is a value type: start one
// with Begin, annotate it, and End it to emit. A Span must not outlive
// its recorder and must be ended at most once.
type Span struct {
	rec *Recorder
	ev  Event
}

// Begin starts a span now on the given track.
func (r *Recorder) Begin(name, cat string, track int32) Span {
	return Span{rec: r, ev: Event{Name: name, Cat: cat, Phase: PhaseComplete, Track: track, TS: r.Now()}}
}

// Arg annotates the span.
func (s *Span) Arg(key string, val int64) { s.ev.AddArg(key, val) }

// SetTrace attaches a request trace ID to the span.
func (s *Span) SetTrace(t TraceID) { s.ev.Trace = t }

// End emits the span with its duration.
func (s *Span) End() {
	s.ev.Dur = s.rec.Now() - s.ev.TS
	s.rec.Emit(s.ev)
}
