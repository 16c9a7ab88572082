package trace

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"incgraph/internal/obs"
)

// Chrome trace_event JSON export. The "JSON Object Format" emitted here
// ({"traceEvents": [...]}) loads directly in Perfetto
// (https://ui.perfetto.dev) and chrome://tracing. Timestamps and
// durations are microseconds (fractional, so nanosecond precision
// survives); each hosted algo renders as one named thread.

// jsonEvent is the wire shape of one trace_event entry.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope: thread
	Args map[string]any `json:"args,omitempty"`
}

type jsonTrace struct {
	TraceEvents     []jsonEvent       `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// otherData keys carried in every dump. The epoch is the recorder's
// wall-clock start in nanoseconds, rendered as a string because unix
// nanos exceed float64's 2^53 integer range; MergeTraceEvents uses it to
// rebase per-process timestamps onto one shared timeline.
const (
	epochKey   = "epoch_unix_ns"
	processKey = "process"
)

// exportPID is the synthetic process id every event renders under.
const exportPID = 1

// micros converts recorder nanoseconds to trace_event microseconds.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// WriteTraceEvents dumps the retained events as Chrome trace_event JSON:
// thread-name metadata for every registered track first, then the events
// oldest-first with their integer args and, when present, the W3C trace
// ID under args.traceparent_id.
func (r *Recorder) WriteTraceEvents(w io.Writer) error {
	return r.WriteTraceEventsN(w, math.MaxInt)
}

// WriteTraceEventsN is WriteTraceEvents limited to the newest n events —
// the ?n= cap of GET /debug/trace (see obs.QueryN).
func (r *Recorder) WriteTraceEventsN(w io.Writer, n int) error {
	r.mu.Lock()
	tracks := append([]string(nil), r.tracks...)
	process := r.process
	events := r.ring.last(n)
	r.mu.Unlock()
	if process == "" {
		process = "incgraph"
	}

	out := jsonTrace{
		DisplayTimeUnit: "ms",
		TraceEvents:     make([]jsonEvent, 0, len(events)+len(tracks)+1),
		OtherData: map[string]string{
			epochKey:   strconv.FormatInt(r.start.UnixNano(), 10),
			processKey: process,
		},
	}
	out.TraceEvents = append(out.TraceEvents, jsonEvent{
		Name: "process_name", Ph: "M", PID: exportPID,
		Args: map[string]any{"name": process},
	})
	for i, name := range tracks {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "thread_name", Ph: "M", PID: exportPID, TID: int32(i + 1),
			Args: map[string]any{"name": name},
		})
	}
	for _, ev := range events {
		je := jsonEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(rune(ev.Phase)),
			PID:  exportPID,
			TID:  ev.Track,
			TS:   micros(ev.TS),
		}
		if ev.Phase == PhaseComplete {
			d := micros(ev.Dur)
			je.Dur = &d
		}
		if ev.Phase == PhaseInstant {
			je.S = "t"
		}
		if ev.NArgs > 0 || !ev.Trace.IsZero() {
			je.Args = make(map[string]any, ev.NArgs+1)
			for i := 0; i < ev.NArgs; i++ {
				je.Args[ev.Args[i].Key] = ev.Args[i].Val
			}
			if !ev.Trace.IsZero() {
				je.Args["traceparent_id"] = ev.Trace.String()
			}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}
	// Viewers tolerate unsorted input, but a sorted dump diffs cleanly
	// and makes the golden test deterministic under ring wrap-around.
	timeline := out.TraceEvents[1+len(tracks):]
	sort.SliceStable(timeline, func(i, j int) bool { return eventBefore(&timeline[i], &timeline[j]) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Handler returns an HTTP handler that dumps the flight recording, for
// mounting at GET /debug/trace. ?n= limits the dump to the newest n
// events (obs.QueryN); the recording ring bounds the response size either
// way.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := obs.QueryN(req, math.MaxInt)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="incgraph-trace.json"`)
		r.WriteTraceEventsN(w, n)
	})
}

// eventBefore is the one order of timeline events in every dump, single
// process or merged: start time ascending, and at equal starts the longer
// span first, so children nest inside their parents.
func eventBefore(a, b *jsonEvent) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	ad, bd := 0.0, 0.0
	if a.Dur != nil {
		ad = *a.Dur
	}
	if b.Dur != nil {
		bd = *b.Dur
	}
	return ad > bd
}
