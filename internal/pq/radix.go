package pq

import "math/bits"

// Radix is an indexed monotone radix heap: a min-queue of handles in
// [0, n) by non-negative keys that never fall below the last key popped,
// which is what a label-setting shortest-path run with non-negative
// weights queues. Bucket b holds the handles whose key first differs from
// the last popped key at bit b-1 (bucket 0: equal to it), so a push is one
// bit scan and a pop redistributes a bucket into lower buckets; a handle
// moves at most once per bit of its key, and no comparator is called.
//
// A handle is queued at most once: pushing a queued handle again moves it
// to its new key, so the buckets hold at most n handles between them. A
// pop moves last only within the bits below a non-empty bucket's index,
// so a queued handle stays in bucket bits.Len64(key ^ last).
type Radix struct {
	last    uint64 // the last key popped; every queued key is at or above it
	n       int
	key     []uint64 // per handle, its key while queued
	pos     []int32  // per handle, its index in its bucket, or -1
	buckets [65][]int32
}

// NewRadix returns an empty heap for handles in [0, n).
func NewRadix(n int) *Radix {
	r := &Radix{key: make([]uint64, n), pos: make([]int32, n)}
	for i := range r.pos {
		r.pos[i] = -1
	}
	return r
}

// Len returns the number of queued handles.
func (r *Radix) Len() int { return r.n }

// Push queues x at key, or moves it there if it is queued already. The key
// must be non-negative and at or above the last key popped.
func (r *Radix) Push(key int64, x int32) {
	if key < 0 || uint64(key) < r.last {
		panic("pq: radix heap key below the last key popped")
	}
	if r.pos[x] >= 0 {
		r.remove(x)
	}
	r.key[x] = uint64(key)
	r.add(x)
}

// add appends x to the bucket of its key.
func (r *Radix) add(x int32) {
	b := bits.Len64(r.key[x] ^ r.last)
	r.pos[x] = int32(len(r.buckets[b]))
	r.buckets[b] = append(r.buckets[b], x)
	r.n++
}

// remove takes x out of its bucket, moving the bucket's last handle into
// its place.
func (r *Radix) remove(x int32) {
	b := bits.Len64(r.key[x] ^ r.last)
	s := r.buckets[b]
	y := s[len(s)-1]
	s[r.pos[x]], r.pos[y] = y, r.pos[x]
	r.buckets[b] = s[:len(s)-1]
	r.pos[x] = -1
	r.n--
}

// Pop removes and returns a handle of least key.
func (r *Radix) Pop() (key int64, x int32, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	if len(r.buckets[0]) == 0 {
		b := 1
		for len(r.buckets[b]) == 0 {
			b++
		}
		// The bucket's least key is the next minimum. Every handle of the
		// bucket agrees with it above bit b-1, so each lands in a lower
		// bucket: the loop never appends to the bucket it reads.
		items := r.buckets[b]
		least := r.key[items[0]]
		for _, y := range items[1:] {
			least = min(least, r.key[y])
		}
		r.last = least
		r.buckets[b] = items[:0]
		r.n -= len(items)
		for _, y := range items {
			r.add(y)
		}
	}
	top := r.buckets[0]
	x = top[len(top)-1]
	r.buckets[0] = top[:len(top)-1]
	r.pos[x] = -1
	r.n--
	return int64(r.last), x, true
}
