package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"incgraph/internal/alloctest"
)

// servingMix emits what a burst-shaped daemon's recorder takes a round:
// the loop's coalesce and stage spans, each of six classes' queue_wait,
// batch, apply and publish spans, and the engine classes' h, round,
// resume and inc_run events, all under the round's request trace ID.
// Values grow with the round as a daemon's do (timestamps, epochs).
type servingMix struct {
	rec    *Recorder
	loop   int32
	tracks [6]int32
	round  int64
}

func newServingMix(rec *Recorder) *servingMix {
	m := &servingMix{rec: rec, loop: rec.Track("apply_loop")}
	for i, algo := range []string{"bc", "cc", "dfs", "lcc", "sim", "sssp"} {
		m.tracks[i] = rec.Track(algo)
	}
	return m
}

// emit records rounds rounds of the mix.
func (m *servingMix) emit(rounds int) {
	for range rounds {
		m.round++
		tid := NewTraceID()
		ts := 10*int64(time.Minute) + m.round*int64(5*time.Millisecond)
		ev := func(name, cat string, ph byte, track int32, dur int64, args ...Arg) {
			e := Event{Name: name, Cat: cat, Phase: ph, Track: track, TS: ts, Dur: dur, Trace: tid}
			for _, a := range args {
				e.AddArg(a.Key, a.Val)
			}
			m.rec.Emit(e)
			ts += dur / 4
		}
		span := func(name string, track int32, dur int64, args ...Arg) {
			ev(name, "serve", PhaseComplete, track, dur, args...)
		}
		epoch := m.round * 400
		span("coalesce", m.loop, 41_000, Arg{"raw", 400}, Arg{"net", 372})
		span("stage", m.loop, 118_000)
		for i, track := range m.tracks {
			affected := Arg{"affected", 1_800 + int64(i)*97}
			span("queue_wait", track, 310_000)
			span("apply", track, 620_000, affected)
			if i == 1 || i == 4 || i == 5 { // cc, sim and sssp run the engine
				ev("h", engineCat, PhaseComplete, track, 90_000,
					Arg{"h_pops", 1_204}, Arg{"h_resets", 311}, Arg{"scope_size", 893}, Arg{"touched", 372})
				for r, frontier := range []int64{893, 402} {
					ev("round", engineCat, PhaseInstant, track, 0,
						Arg{"round", int64(r + 1)}, Arg{"frontier", frontier}, Arg{"pops", frontier}, Arg{"changes", frontier / 2}, Arg{"aff_growth", frontier / 2})
				}
				ev("resume", engineCat, PhaseComplete, track, 310_000, Arg{"pops", 1_295}, Arg{"changes", 419}, Arg{"rounds", 2})
				ev("inc_run", engineCat, PhaseComplete, track, 400_000,
					Arg{"run", m.round}, Arg{"touched", 372}, Arg{"push_seeds", 41}, Arg{"scope_size", 893})
			}
			span("publish", track, 23_000, Arg{"epoch", epoch}, Arg{"pages_copied", 11})
			span("batch", track, 680_000, Arg{"raw", 400}, Arg{"net", 372}, affected, Arg{"epoch", epoch}, Arg{"queue_wait_nanos", 310_000})
		}
	}
}

// TestRecorderResidentBytes holds a full serving recorder — 8,192
// events of the serving mix, wrapped twice — to half a megabyte of live
// heap (the Event ring it replaced held 1.84 MB).
func TestRecorderResidentBytes(t *testing.T) {
	const capacity, budget = 8192, 500_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := NewRecorder(capacity)
	m := newServingMix(rec)
	for rec.Len() < capacity {
		m.emit(1)
	}
	m.emit(2 * int(m.round))
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	g := &rec.ring
	t.Logf("%d events in %d rounds: live heap %d B; arena %d B (%d used, %.1f B an event), index %d B, %d interned",
		rec.Len(), m.round, live, len(g.arena), g.used(), float64(g.used())/capacity, 4*len(g.off), len(g.names))
	if rec.Len() != capacity {
		t.Fatalf("retains %d events, want %d", rec.Len(), capacity)
	}
	if held := len(g.arena) + 4*len(g.off); live > budget || held > budget {
		t.Fatalf("a full recorder holds %d B live (%d B of arena and index), over the %d B budget", live, held, budget)
	}
	runtime.KeepAlive(rec)
}

// TestEmitZeroAlloc: once the arena has grown to hold its last n events,
// recording the serving mix allocates nothing.
func TestEmitZeroAlloc(t *testing.T) {
	alloctest.Zero(t, func(measure func(func())) {
		rec := NewRecorder(512)
		m := newServingMix(rec)
		m.emit(100)
		measure(func() { m.emit(20) })
	})
}

// TestRecorderRoundTrip: Events returns exactly the last n events
// emitted, whatever they hold — 0–6 args, extreme values, zero and
// nonzero trace IDs, any phase byte, names past the intern bound and
// long inline ones — after the ring has wrapped many times.
func TestRecorderRoundTrip(t *testing.T) {
	pool := []string{"", "h", "round", "batch", strings.Repeat("long", 100)}
	for i := range maxInterned + 64 {
		pool = append(pool, fmt.Sprintf("name-%d", i))
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, -1, 0, 1}
	f := func(seed int64, size, laps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		val := func() int64 {
			if rng.Intn(2) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return rng.Int63n(1<<40) - 1<<39
		}
		n := int(size)%64 + 1
		rec := NewRecorder(n)
		var emitted []Event
		for range n*(int(laps)%8+1) + rng.Intn(n) {
			ev := Event{
				Name:  pool[rng.Intn(len(pool))],
				Cat:   pool[rng.Intn(len(pool))],
				Phase: []byte{PhaseComplete, PhaseInstant, byte(rng.Intn(256))}[rng.Intn(3)],
				Track: int32(val()),
				TS:    val(),
				Dur:   val(),
			}
			if ev.TS == 0 {
				ev.TS = 1 // Emit stamps a zero TS with the clock
			}
			if rng.Intn(3) > 0 {
				rng.Read(ev.Trace[:])
			}
			for range rng.Intn(maxArgs + 1) {
				ev.AddArg(pool[rng.Intn(len(pool))], val())
			}
			rec.Emit(ev)
			emitted = append(emitted, ev)
		}
		want := emitted[max(len(emitted)-n, 0):]
		return rec.Len() == len(want) && slices.Equal(rec.Events(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRecorderConcurrent emits from several goroutines while others dump
// the recording (run it under -race): every dump is whole and the
// recorder keeps its last n events.
func TestRecorderConcurrent(t *testing.T) {
	const n = 256
	rec := NewRecorder(n)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			track := rec.Track(fmt.Sprint("w", w))
			for i := range 2000 {
				ev := Event{Name: "e", Cat: "test", Phase: PhaseInstant, Track: track, TS: int64(i + 1)}
				ev.AddArg("i", int64(i))
				rec.Emit(ev)
			}
		}()
	}
	for range 20 {
		if err := rec.WriteTraceEventsN(io.Discard, 100); err != nil {
			t.Fatal(err)
		}
		for _, ev := range rec.Events() {
			if ev.Name != "e" || ev.NArgs != 1 || ev.Args[0].Val != ev.TS-1 {
				t.Fatalf("torn event %+v", ev)
			}
		}
	}
	wg.Wait()
	if rec.Len() != n {
		t.Fatalf("retains %d events, want %d", rec.Len(), n)
	}
}

// BenchmarkRecorderEmit records a batch span — five args and a trace ID,
// the stack's largest — into a serving-size recorder.
func BenchmarkRecorderEmit(b *testing.B) {
	rec := NewRecorder(8192)
	ev := Event{Name: "batch", Cat: "serve", Phase: PhaseComplete, Track: rec.Track("sssp"), Dur: 680_000, Trace: NewTraceID()}
	for _, a := range []Arg{{"raw", 400}, {"net", 372}, {"affected", 1_800}, {"epoch", 4_000_000}, {"queue_wait_nanos", 310_000}} {
		ev.AddArg(a.Key, a.Val)
	}
	b.ReportAllocs()
	for i := range b.N {
		ev.TS = 10*int64(time.Minute) + int64(i)*5_000
		rec.Emit(ev)
	}
}
