// Package pq provides the priority queues of this repository: an indexed
// binary min-heap over dense int32 handles with O(log n) add-or-adjust
// (decrease/increase-key), behind the incremental algorithms and the
// fixpoint engine, and a monotone radix heap (Radix), behind sssp's batch
// Dijkstra.
package pq

// Heap is an indexed min-heap over handles 0..n-1 ordered by an external
// comparator. The zero value is not usable; call New.
type Heap struct {
	less  func(a, b int32) bool
	items []int32
	pos   []int32
}

// New returns a heap over handles 0..n-1 ordered by less.
func New(n int, less func(a, b int32) bool) *Heap {
	h := &Heap{less: less, pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued handles.
func (h *Heap) Len() int { return len(h.items) }

// Contains reports whether x is queued.
func (h *Heap) Contains(x int32) bool { return h.pos[x] >= 0 }

// AddOrAdjust inserts x, or restores heap order after x's key changed —
// the paper's que.addOrAdjust.
func (h *Heap) AddOrAdjust(x int32) {
	if h.pos[x] < 0 {
		h.pos[x] = int32(len(h.items))
		h.items = append(h.items, x)
		h.up(int(h.pos[x]))
		return
	}
	i := int(h.pos[x])
	if !h.up(i) {
		h.down(i)
	}
}

// Pop removes and returns the minimum handle.
func (h *Heap) Pop() (int32, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.pos[h.items[0]] = 0
	h.items = h.items[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top, true
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *Heap) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
