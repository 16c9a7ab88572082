package serve

import (
	"slices"
	"testing"
	"time"

	"incgraph/internal/graph"
)

// The tests below pin the apply loop's batching policy — group commit:
// flush when the queue drains, coalesce what queued while an apply ran —
// without a sleep as synchronisation: the busy host is a slowServeable
// parked inside Apply.

func edge(from, to int) graph.Batch {
	return graph.Batch{{Kind: graph.InsertEdge, From: graph.NodeID(from), To: graph.NodeID(to), W: 1}}
}

// TestHostFlushIdleDoesNotWait: on an idle host a submission is applied at
// once, whatever MaxWait says. With an hour's MaxWait and a MaxBatch out
// of reach a timer-armed loop would hang here; with 20 ms it would put
// the median round trip at 20 ms.
func TestHostFlushIdleDoesNotWait(t *testing.T) {
	h := NewHost(newSlowReleased(8), Options{MaxBatch: 1 << 20, MaxWait: time.Hour})
	defer h.Close()
	done := make(chan error, 1)
	go func() { done <- submitWait(h, edge(0, 1)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a waited submission on an idle host waited for MaxWait")
	}
	if tr := h.RecentApplies(); len(tr) != 1 || tr[0].FlushReason != "drain" {
		t.Fatalf("applies %+v, want one flushed by drain", tr)
	}

	const maxWait = 20 * time.Millisecond
	q := NewHost(newSlowReleased(8), Options{MaxBatch: 1 << 20, MaxWait: maxWait})
	defer q.Close()
	trips := make([]time.Duration, 200)
	for i := range trips {
		start := time.Now()
		if err := submitWait(q, edge(i%7, 7)); err != nil {
			t.Fatal(err)
		}
		trips[i] = time.Since(start)
	}
	slices.Sort(trips)
	if med := trips[len(trips)/2]; med > maxWait/4 {
		t.Fatalf("median idle round trip %v with MaxWait %v: the loop is waiting a window out", med, maxWait)
	}
	if st := q.Stats(); st.BatchesApplied != uint64(len(trips)) {
		t.Fatalf("%d batches for %d sequential round trips", st.BatchesApplied, len(trips))
	}
}

// TestHostFlushCoalescesUnderLoad: what queues up while an apply runs is
// the next batch, whole. Ten submissions (alternating insert and delete
// of one edge, so Net cancels nine of them) arrive while the loop is
// parked; releasing it must produce exactly one further apply carrying
// all ten — coalescing under load is what it was with a timer.
func TestHostFlushCoalescesUnderLoad(t *testing.T) {
	slow := newSlow(8)
	h := NewHost(slow, Options{MaxBatch: 1 << 20, MaxWait: time.Hour})
	slow.park(t, h)
	for i := 0; i < 10; i++ {
		b := edge(2, 3)
		if i%2 == 1 {
			b[0].Kind = graph.DeleteEdge
		}
		if err := submit(h, b); err != nil {
			t.Fatal(err)
		}
	}
	close(slow.release)
	if err := submitWait(h, nil); err != nil { // queued behind the ten: acked by the flush that takes them, or the next
		t.Fatal(err)
	}
	st := h.Stats()
	if st.BatchesApplied != 2 || st.UpdatesApplied != 11 || st.UpdatesCoalesced != 9 {
		t.Fatalf("batches %d, applied %d, coalesced %d; want 2, 11 and 9", st.BatchesApplied, st.UpdatesApplied, st.UpdatesCoalesced)
	}
	tr := h.RecentApplies()
	if len(tr) != 2 || tr[1].RawUpdates != 10 || tr[1].NetUpdates != 1 || tr[1].FlushReason != "drain" {
		t.Fatalf("applies %+v, want a second one of 10 raw, 1 net, flushed by drain", tr)
	}
	h.Close()
	if !slices.Equal(slow.sizes, []int{1, 1}) {
		t.Fatalf("maintainer saw batches of %v, want [1 1]", slow.sizes)
	}
}

// TestHostFlushFullAndTimer: the two bounds on a batch that keeps growing.
// MaxBatch closes it while more is queued; and when the queue never
// empties below MaxBatch, MaxWait does.
func TestHostFlushFullAndTimer(t *testing.T) {
	slow := newSlow(8)
	h := NewHost(slow, Options{MaxBatch: 4, MaxWait: time.Hour})
	slow.park(t, h)
	for i := 0; i < 6; i++ {
		if err := submit(h, edge(i, 7)); err != nil {
			t.Fatal(err)
		}
	}
	close(slow.release)
	h.Close()
	var reasons []string
	for _, tr := range h.RecentApplies() {
		reasons = append(reasons, tr.FlushReason)
	}
	// The parked one; four of the six at MaxBatch; the last two when the
	// queue is empty (or at Close, if it wins the race to the loop).
	if len(reasons) != 3 || reasons[1] != "full" || (reasons[2] != "drain" && reasons[2] != "close") {
		t.Fatalf("flush reasons %v, want [drain full drain|close]", reasons)
	}

	// A queue that does not empty within MaxWait: the timer closes the
	// batch instead of holding it open for as long as submissions keep
	// coming. MaxWait is 1 ns and 20,000 submissions wait behind the parked
	// loop, so the timer is due on every pass through the loop's select.
	const queued = 20000
	slow = newSlow(8)
	h = NewHost(slow, Options{MaxBatch: 1 << 30, MaxWait: time.Nanosecond, Queue: queued})
	slow.park(t, h)
	for i := 0; i < queued; i++ {
		if err := submit(h, edge(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	close(slow.release)
	if err := submitWait(h, nil); err != nil { // acked once everything ahead of it is applied
		t.Fatal(err)
	}
	h.Close()
	if h.met.flushes[flushTimer].Value() == 0 {
		t.Fatalf("%d queued submissions and a 1 ns MaxWait, and no batch was closed by the timer: %d batches", queued, h.Stats().BatchesApplied)
	}
	if st := h.Stats(); st.UpdatesApplied != queued+1 {
		t.Fatalf("applied %d of %d updates", st.UpdatesApplied, queued+1)
	}
}

// TestHostFlushStateJobSeesEarlierSubmissions: a WithState job runs after
// every submission accepted before it has been applied, also when those
// are still an open batch.
func TestHostFlushStateJobSeesEarlierSubmissions(t *testing.T) {
	slow := newSlow(8)
	h := NewHost(slow, Options{MaxBatch: 1 << 20, MaxWait: time.Hour})
	defer h.Close()
	slow.park(t, h)
	for i := 0; i < 5; i++ {
		if err := submit(h, edge(i, 7)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(chan int, 1)
	go func() {
		h.WithState(func(m Serveable) error {
			total := 0
			for _, n := range m.(*slowServeable).sizes {
				total += n
			}
			seen <- total
			return nil
		})
	}()
	// Release the loop only once the job is queued behind the five (the
	// wait is for that event; no timing decides the outcome).
	for len(h.in) < 6 {
		time.Sleep(time.Millisecond)
	}
	close(slow.release)
	if got := <-seen; got != 6 {
		t.Fatalf("the state job saw %d updates applied, want all 6 accepted before it", got)
	}
	if tr := h.RecentApplies(); len(tr) != 2 || tr[1].FlushReason != "state" || tr[1].RawUpdates != 5 {
		t.Fatalf("applies %+v, want the five flushed for the state job", tr)
	}
}
