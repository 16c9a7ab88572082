package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Cross-process trace merging. Each cluster member dumps its own flight
// recording with a per-process clock epoch (otherData.epoch_unix_ns);
// the router fetches those dumps and merges them here into one
// Perfetto-loadable timeline — one pid per member, timestamps rebased
// onto the earliest member epoch, so a fanned-out update renders as a
// single waterfall: router split, per-shard queue/apply, replica replay.

// ProcessDump is one member's trace dump as fetched from its
// GET /debug/trace endpoint. Process, when non-empty, overrides the
// dump's self-reported process name — the scraper's topology view
// ("shard-0", "replica-0") is authoritative over what the member thinks
// it is called.
type ProcessDump struct {
	Process string
	Data    []byte
}

// MergeTraceEvents merges per-process dumps into a single Chrome
// trace_event JSON document. Dumps keep their input order: dump i
// becomes pid i+1, so a fixed scrape order yields stable process ids.
// Per-dump timestamps are rebased using each dump's epoch_unix_ns onto
// the earliest epoch present, aligning the per-process clocks. When
// filter is non-zero, only events tagged with that trace ID survive
// (metadata records always do) — the single-request waterfall view.
func MergeTraceEvents(w io.Writer, dumps []ProcessDump, filter TraceID) error {
	out := jsonTrace{DisplayTimeUnit: "ms"}
	type parsed struct {
		doc     jsonTrace
		process string
		epoch   int64
	}
	docs := make([]parsed, 0, len(dumps))
	base := int64(0)
	haveBase := false
	for i, d := range dumps {
		var p parsed
		if err := json.Unmarshal(d.Data, &p.doc); err != nil {
			return fmt.Errorf("trace: parsing dump %d: %w", i, err)
		}
		p.process = d.Process
		if p.process == "" {
			p.process = p.doc.OtherData[processKey]
		}
		if p.process == "" {
			p.process = fmt.Sprintf("process-%d", i+1)
		}
		if raw := p.doc.OtherData[epochKey]; raw != "" {
			if ns, err := strconv.ParseInt(raw, 10, 64); err == nil {
				p.epoch = ns
				if !haveBase || ns < base {
					base, haveBase = ns, true
				}
			}
		}
		docs = append(docs, p)
	}

	want := ""
	if !filter.IsZero() {
		want = filter.String()
	}
	for i, p := range docs {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": p.process},
		})
		// Epoch offset in microseconds; dumps without an epoch stay at
		// their local timeline (offset 0) rather than being guessed.
		var offset float64
		if haveBase && p.epoch != 0 {
			offset = float64(p.epoch-base) / 1e3
		}
		for _, ev := range p.doc.TraceEvents {
			if ev.Ph == "M" {
				// Keep thread names, drop the member's own process_name:
				// the merged document names processes by topology slot.
				if ev.Name != "thread_name" {
					continue
				}
				ev.PID = pid
				out.TraceEvents = append(out.TraceEvents, ev)
				continue
			}
			if want != "" {
				id, _ := ev.Args["traceparent_id"].(string)
				if id != want {
					continue
				}
			}
			ev.PID = pid
			ev.TS += offset
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}

	// Metadata first (ph M sorts ahead), then the shared timeline in
	// start order with longer spans first at ties, as in single-process
	// dumps — deterministic output for the golden test.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := &out.TraceEvents[i], &out.TraceEvents[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if am {
			return false // metadata keeps input order: pid, then tracks
		}
		return eventBefore(a, b)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
