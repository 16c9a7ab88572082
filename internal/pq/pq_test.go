package pq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeapSortsKeys(t *testing.T) {
	keys := []int64{9, 1, 8, 2, 7, 3}
	h := New(len(keys), func(a, b int32) bool { return keys[a] < keys[b] })
	for i := range keys {
		h.AddOrAdjust(int32(i))
	}
	prev := int64(-1)
	for h.Len() > 0 {
		x, _ := h.Pop()
		if keys[x] < prev {
			t.Fatalf("pop out of order: %d after %d", keys[x], prev)
		}
		prev = keys[x]
	}
}

func TestHeapAdjust(t *testing.T) {
	keys := []int64{5, 6, 7, 0}
	h := New(4, func(a, b int32) bool { return keys[a] < keys[b] })
	h.AddOrAdjust(0)
	h.AddOrAdjust(1)
	keys[1] = 1
	h.AddOrAdjust(1)
	h.AddOrAdjust(3)
	if x, _ := h.Pop(); x != 3 {
		t.Fatalf("popped %d, want 3", x)
	}
	if x, _ := h.Pop(); x != 1 {
		t.Fatalf("popped %d, want 1 after decrease-key", x)
	}
	if !h.Contains(0) || h.Contains(1) {
		t.Fatal("Contains wrong")
	}
	if _, ok := h.Pop(); !ok {
		t.Fatal("expected one more element")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestHeapRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 150
	keys := make([]int64, n)
	h := New(n, func(a, b int32) bool { return keys[a] < keys[b] })
	live := map[int32]bool{}
	for op := 0; op < 6000; op++ {
		x := int32(rng.Intn(n))
		if rng.Intn(3) < 2 {
			keys[x] = int64(rng.Intn(500))
			h.AddOrAdjust(x)
			live[x] = true
		} else if y, ok := h.Pop(); ok {
			for z := range live {
				if keys[z] < keys[y] {
					t.Fatalf("popped key %d but %d live", keys[y], keys[z])
				}
			}
			delete(live, y)
		}
	}
	if h.Len() != len(live) {
		t.Fatalf("Len %d != model %d", h.Len(), len(live))
	}
}

// TestHeapSortProperty: draining a heap after arbitrary add-or-adjust
// traffic yields keys in nondecreasing order — the heap invariant as a
// testing/quick property.
func TestHeapSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 60
		keys := make([]int64, n)
		h := New(n, func(a, b int32) bool { return keys[a] < keys[b] })
		for op := 0; op < 300; op++ {
			x := int32(rng.Intn(n))
			keys[x] = int64(rng.Intn(1000))
			h.AddOrAdjust(x)
		}
		prev := int64(-1)
		for {
			x, ok := h.Pop()
			if !ok {
				return true
			}
			if keys[x] < prev {
				return false
			}
			prev = keys[x]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRadixPopsNonDecreasing drains a Radix fed the way Dijkstra feeds it
// — each push at or above the last key popped, some keys repeated, queued
// handles pushed again, lower (Dijkstra's decrease-key) or higher —
// interleaved with pops, on draws from the clock-seeded testing/quick,
// against a map of the queued keys: every pop is a least queued key, at or
// above the last, with the handle's newest key, and each handle comes out
// once per time it was queued.
func TestRadixPopsNonDecreasing(t *testing.T) {
	const handles = 50
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRadix(handles)
		queued := map[int32]int64{}
		last := int64(0)
		pop := func() bool {
			key, x, ok := r.Pop()
			want, in := queued[x]
			if !ok || !in || key != want || key < last {
				return false
			}
			for _, k := range queued {
				if k < key {
					return false
				}
			}
			delete(queued, x)
			last = key
			return r.Len() == len(queued)
		}
		for op := 0; op < 400; op++ {
			if r.Len() > 0 && rng.Intn(3) == 0 {
				if !pop() {
					return false
				}
				continue
			}
			// Offsets at every scale, 0 included: a key equal to the last
			// popped, near it, and up to 2⁶¹ past it, the keys kept below
			// 2⁶² as Dijkstra's are. A queued handle moves: down, as a
			// decrease-key does, half the time.
			x := int32(rng.Intn(handles))
			off := rng.Int63n(int64(1) << uint(rng.Intn(62)))
			key := last + min(off, 1<<62-last)
			if k, in := queued[x]; in && rng.Intn(2) == 0 {
				key = last + rng.Int63n(k-last+1)
			}
			r.Push(key, x)
			queued[x] = key
			if r.Len() != len(queued) {
				return false
			}
		}
		for r.Len() > 0 {
			if !pop() {
				return false
			}
		}
		_, _, ok := r.Pop()
		return !ok && len(queued) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRadixRefusesKeyBelowLast: a key below the last popped would break
// the bucket invariant, so Push panics rather than lose the order.
func TestRadixRefusesKeyBelowLast(t *testing.T) {
	r := NewRadix(2)
	r.Push(5, 0)
	if _, _, ok := r.Pop(); !ok {
		t.Fatal("pop from a heap of one failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a push below the last popped key was taken")
		}
	}()
	r.Push(4, 1)
}

// BenchmarkRadix pushes a million handles and pops them the way a
// Dijkstra run does: each key at or above the last popped, spread over a
// range of a few thousand above it.
func BenchmarkRadix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	steps := make([]int64, 1<<20)
	for i := range steps {
		steps[i] = rng.Int63n(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRadix(len(steps))
		last := int64(0)
		for k, s := range steps {
			r.Push(last+s, int32(k))
			if k%2 == 1 {
				last, _, _ = r.Pop()
			}
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}
}
