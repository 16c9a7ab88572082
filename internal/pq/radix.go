package pq

import "math/bits"

// Radix is a monotone radix heap of (key, handle) pairs: a min-queue
// whose keys are non-negative and never below the last key popped, which
// is what a label-setting shortest-path run with non-negative weights
// pushes. Bucket b holds the pairs whose key first differs from the last
// popped key at bit b-1 (bucket 0: equal to it), so a push is one bit
// scan and a pop redistributes a bucket's pairs into lower buckets; each
// pair moves at most once per bit of the key, and no comparator is called.
//
// It has no decrease-key: a caller pushes a handle again at its smaller
// key and skips a popped pair whose key is no longer the handle's (lazy
// deletion). The zero value is an empty heap.
type Radix struct {
	last    uint64 // the last key popped; every queued key is at or above it
	n       int
	buckets [65][]radixItem
	spare   [][]radixItem // arrays buckets outgrew, for another bucket to fill
}

type radixItem struct {
	key uint64
	x   int32
}

// Len returns the number of queued pairs, stale ones included.
func (r *Radix) Len() int { return r.n }

// Push queues x at key, which must be non-negative and at or above the
// last key popped.
func (r *Radix) Push(key int64, x int32) {
	if key < 0 || uint64(key) < r.last {
		panic("pq: radix heap key below the last key popped")
	}
	b := bits.Len64(uint64(key) ^ r.last)
	if len(r.buckets[b]) == cap(r.buckets[b]) {
		r.grow(b)
	}
	r.buckets[b] = append(r.buckets[b], radixItem{uint64(key), x})
	r.n++
}

// grow moves full bucket b into the array a bucket outgrew last, if that
// is larger, or else into a new one twice its size, and gives up its own:
// the buckets fill what others outgrew instead of each growing its own.
func (r *Radix) grow(b int) {
	s := r.buckets[b]
	var t []radixItem
	if k := len(r.spare) - 1; k >= 0 && cap(r.spare[k]) > len(s) {
		t, r.spare = r.spare[k][:len(s)], r.spare[:k]
	} else {
		t = make([]radixItem, len(s), max(64, 2*cap(s)))
	}
	copy(t, s)
	if cap(s) > 0 {
		r.spare = append(r.spare, s[:0])
	}
	r.buckets[b] = t
}

// Pop removes and returns a pair of least key.
func (r *Radix) Pop() (key int64, x int32, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	if len(r.buckets[0]) == 0 {
		b := 1
		for len(r.buckets[b]) == 0 {
			b++
		}
		// The bucket's least key is the next minimum. Every pair of the
		// bucket agrees with it above bit b-1, so each lands in a lower
		// bucket: the loop never appends to the bucket it reads.
		items := r.buckets[b]
		least := items[0].key
		for _, it := range items[1:] {
			least = min(least, it.key)
		}
		r.last = least
		for _, it := range items {
			c := bits.Len64(it.key ^ least)
			if len(r.buckets[c]) == cap(r.buckets[c]) {
				r.grow(c)
			}
			r.buckets[c] = append(r.buckets[c], it)
		}
		r.buckets[b] = items[:0]
	}
	top := r.buckets[0]
	it := top[len(top)-1]
	r.buckets[0] = top[:len(top)-1]
	r.n--
	return int64(it.key), it.x, true
}
