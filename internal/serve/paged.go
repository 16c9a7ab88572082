package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"incgraph/internal/graph"
)

// pageSize is the number of entries one page of a Paged vector holds.
// Chosen by measurement on the repository benchmark's trickle workload
// (|V| = 100,000, a dozen scattered entries change per apply; see
// EXPERIMENTS.md, "View publication and paged reads"): at 256 one publish
// copies a few 2 KiB pages and, once somebody has read them, their ~1 KB
// of encoded bytes. Halving it doubles the page table and, once replaced
// pages inherit their encoded bytes (derivePage), no longer speeds up
// reads; doubling it doubles the bytes copied per apply.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

// chunkSize is the fan-out of a vector's page table: pages are reached
// through chunks of this many page pointers, so replacing a page copies
// one 128-byte chunk and a top level of |V|/4096 pointers rather than a
// flat table of |V|/256 — at |V| = 400,000 the flat table was the larger
// part of a small publish.
const (
	chunkShift = 4
	chunkSize  = 1 << chunkShift
)

// PageElem lists the element types of the per-node vectors the hosted
// query classes publish.
type PageElem interface {
	int32 | int64 | float64 | bool | graph.NodeID
}

// encodedPage is a page's elements as json.Marshal writes them: comma-
// separated, with no enclosing brackets, so whole pages concatenate into
// an array body.
type encodedPage struct {
	b []byte
	// end[i] is the offset in b just past entry i's value (the comma, if
	// any, follows): what lets a page copied from this one keep the bytes
	// of the entries it did not change. A page's bytes stay far below
	// 64 KiB: 256 entries of at most 24 digits and a comma.
	end []uint16
}

// page is the unit of sharing and of encoding. A page is written only
// while its vector is being built; once the vector is returned nobody
// modifies vals again, which is what lets any number of epochs and
// readers hold the same page. enc is the one mutable part: the cache of
// the page's encoded bytes, filled by whichever reader first needs them
// (racing readers store identical bytes) and garbage with the page. A page
// that replaces one already read starts with it filled (derivePage).
type page[T PageElem] struct {
	enc     atomic.Pointer[encodedPage]
	n       int // entries in use; pageSize except in a vector's last page
	spliced int // entries derivePage re-encoded to fill enc
	vals    [pageSize]T
}

// newPage builds a page with no predecessor: nothing is cached until a
// reader encodes it.
func newPage[T PageElem](src []T) *page[T] {
	pg := &page[T]{n: len(src)}
	copy(pg.vals[:], src)
	return pg
}

// derivePage builds the page that replaces old with src as its content,
// born cached: if old holds its encoded bytes the new page gets the same
// bytes with only the entries that differ re-encoded — the unchanged runs
// are copied, so the result is what a cold encode of src produces, at the
// cost of a ~1 KB copy instead of 256 integer formats, and a reader never
// meets a page cold just because an apply touched it. A page nobody read
// leaves its successor cold too; old itself is not retained.
func derivePage[T PageElem](old *page[T], src []T) *page[T] {
	pg := newPage(src)
	was := old.enc.Load()
	if was == nil || old.n != pg.n { // never read, or the last page of a vector whose length changed
		return pg
	}
	var buf [pageSize]int
	changed := changedEntries(old.vals[:old.n], src, buf[:0])
	var enc *encodedPage
	if 2*len(changed) > pg.n { // mostly new values: encoding them all costs less than splicing each
		enc, _ = encodePage(src)
	} else {
		enc = splice(was, src, changed)
	}
	if enc != nil {
		pg.enc.Store(enc)
		pg.spliced = len(changed)
	}
	return pg
}

// encodePage encodes vals, a page's entries.
func encodePage[T PageElem](vals []T) (*encodedPage, error) {
	enc := &encodedPage{end: make([]uint16, len(vals))}
	var err error
	if enc.b, err = appendElems(make([]byte, 0, 7*len(vals)), vals, enc.end); err != nil {
		return nil, err
	}
	return enc, nil
}

// differs reports whether a and b encode to different bytes: when they
// are unequal, and for the one value with two encodings — the floats 0
// and -0, which compare equal.
func differs[T PageElem](a, b T) bool {
	if a != b {
		return true
	}
	var zero T
	if a != zero {
		return false
	}
	f, ok := any(a).(float64)
	return ok && math.Signbit(f) != math.Signbit(any(b).(float64))
}

// changedEntries appends to changed the indices at which cur differs from
// old.
func changedEntries[T PageElem](old, cur []T, changed []int) []int {
	for i, x := range cur {
		if differs(x, old[i]) {
			changed = append(changed, i)
		}
	}
	return changed
}

// splice returns e with the entries at the ascending indices changed
// re-encoded from vals and everything else copied; nil when a new value
// cannot be encoded (a NaN), which leaves the error to the reader.
func splice[T PageElem](e *encodedPage, vals []T, changed []int) *encodedPage {
	d := &encodedPage{b: make([]byte, 0, len(e.b)+2*len(changed)), end: make([]uint16, len(e.end))}
	from, at := 0, 0 // e.b[from:] is still to copy; d.end[:at] is final
	for _, i := range changed {
		start := 0
		if i > 0 {
			start = int(e.end[i-1]) + 1 // past the comma
		}
		shift := len(d.b) - from // what the entries copied since the last splice moved by
		d.b = append(d.b, e.b[from:start]...)
		for ; at < i; at++ {
			d.end[at] = uint16(int(e.end[at]) + shift)
		}
		var err error
		if d.b, err = appendElems(d.b, vals[i:i+1], nil); err != nil {
			return nil
		}
		d.end[i], at, from = uint16(len(d.b)), i+1, int(e.end[i])
	}
	shift := len(d.b) - from
	d.b = append(d.b, e.b[from:]...)
	for ; at < len(d.end); at++ {
		d.end[at] = uint16(int(e.end[at]) + shift)
	}
	return d
}

func (pg *page[T]) equal(src []T) bool {
	if pg.n != len(src) || !slices.Equal(pg.vals[:pg.n], src) {
		return false
	}
	if _, float := any(src).([]float64); float { // equal floats can still differ in the sign of a zero
		for i, x := range src {
			if differs(x, pg.vals[i]) {
				return false
			}
		}
	}
	return true
}

// Paged is an immutable vector stored as fixed-size pages that
// successive versions share: Update builds the next version by copying
// only the pages whose content changed. It is what the view types hold
// in place of a deep-copied slice, so publishing a view costs what the
// apply changed and a reader never encodes an unchanged page twice. The
// zero value is the empty vector. Paged values are safe for concurrent
// use; as JSON a Paged is the plain array.
type Paged[T PageElem] struct {
	n      int
	chunks []*[chunkSize]*page[T] // immutable, like the pages: Update copies the path to a page it replaces
}

// Len returns the number of entries.
func (p Paged[T]) Len() int { return p.n }

// At returns entry i.
func (p Paged[T]) At(i int) T { return p.page(i >> pageShift).vals[i&(pageSize-1)] }

// Slice returns the entries as a freshly allocated slice.
func (p Paged[T]) Slice() []T {
	out := make([]T, 0, p.n)
	for k := range p.numPages() {
		pg := p.page(k)
		out = append(out, pg.vals[:pg.n]...)
	}
	return out
}

func (p Paged[T]) numPages() int { return (p.n + pageSize - 1) >> pageShift }

func (p Paged[T]) page(k int) *page[T] { return p.chunks[k>>chunkShift][k&(chunkSize-1)] }

// set puts pg at page k of q, a vector being built from prev: the top
// level and k's chunk are copied the first time a write reaches them,
// and stay shared with prev otherwise.
func (q *Paged[T]) set(prev Paged[T], k int, pg *page[T]) {
	c := k >> chunkShift
	if len(prev.chunks) > 0 && &q.chunks[0] == &prev.chunks[0] {
		q.chunks = slices.Clone(q.chunks)
	}
	if c < len(prev.chunks) && q.chunks[c] == prev.chunks[c] {
		own := *q.chunks[c]
		q.chunks[c] = &own
	}
	q.chunks[c][k&(chunkSize-1)] = pg
}

// Update returns the vector holding cur, sharing with p every page whose
// content is the same. written lists the indices that may differ from p
// — a superset is fine, order and duplicates do not matter — and makes
// the cost O(len(written) + pages copied × page size); nil means
// unknown, and every page is compared (O(len(cur)), still copying only
// what differs). cur is not retained. A vector equal to p is p itself.
func (p Paged[T]) Update(cur []T, written []int32) Paged[T] {
	if written == nil || len(cur) != p.n {
		return p.rebuild(cur)
	}
	q := p
	for _, i := range written {
		k := int(i) >> pageShift
		if old := p.page(k); q.page(k) == old && differs(old.vals[int(i)&(pageSize-1)], cur[i]) {
			q.set(p, k, derivePage(old, cur[k<<pageShift:min((k+1)<<pageShift, len(cur))]))
		} // else page k is already copied, or this entry did not change
	}
	return q
}

// rebuild is Update without a written list: page-by-page comparison.
func (p Paged[T]) rebuild(cur []T) Paged[T] {
	q := Paged[T]{n: len(cur), chunks: p.chunks}
	np, was := q.numPages(), p.numPages()
	if np != was { // a table of another size shares pages, not chunks
		q.chunks = make([]*[chunkSize]*page[T], (np+chunkSize-1)>>chunkShift)
		for c := range q.chunks {
			q.chunks[c] = new([chunkSize]*page[T])
		}
	}
	for k := range np {
		src := cur[k<<pageShift : min((k+1)<<pageShift, len(cur))]
		switch {
		case k >= was:
			q.set(p, k, newPage(src))
		case !p.page(k).equal(src):
			q.set(p, k, derivePage(p.page(k), src))
		case np != was:
			q.set(p, k, p.page(k))
		}
	}
	return q
}

// publishCost is what publishing a vector (or a view's vectors) after its
// predecessor took: the pages not shared with it, the entries in those
// pages, and the entries re-encoded to hand the pages their predecessors'
// cached bytes; total is the page count published.
type publishCost struct{ pages, entries, spliced, total int }

// costSince accounts p against prev, its predecessor. Chunks the two
// share are skipped whole.
func (p Paged[T]) costSince(prev pagedVec) publishCost {
	q, _ := prev.(Paged[T])
	c := publishCost{total: p.numPages()}
	was := q.numPages()
	for k := 0; k < c.total; k++ {
		if ch := k >> chunkShift; k&(chunkSize-1) == 0 && ch < len(q.chunks) && p.chunks[ch] == q.chunks[ch] {
			k += chunkSize - 1
			continue
		}
		if pg := p.page(k); k >= was || q.page(k) != pg {
			c.pages++
			c.entries += pg.n
			c.spliced += pg.spliced
		}
	}
	return c
}

// appendRange appends entries [lo, hi) to b as array elements (no
// brackets), taking every page the range covers whole from its cache and
// filling the cache where it is empty. encoded counts the pages that had to
// be encoded from scratch.
func (p Paged[T]) appendRange(b []byte, lo, hi int) (_ []byte, encoded int, err error) {
	first, start := lo>>pageShift, len(b)
	for k := first; k<<pageShift < hi; k++ {
		pg, base := p.page(k), k<<pageShift
		from, to := max(lo-base, 0), min(hi-base, pg.n)
		if k == first+1 {
			// Reserve the rest at the first page's bytes per entry, so a
			// buffer that starts empty (the first answer, or a pooled
			// buffer the GC dropped) is grown once, not a quarter at a time.
			b = slices.Grow(b, ((len(b)-start)/(base-lo)+1)*(hi-base))
		}
		if base > lo {
			b = append(b, ',')
		}
		if from > 0 || to < pg.n { // a range's ragged edge: encoded, not cached
			encoded++
			if b, err = appendElems(b, pg.vals[from:to], nil); err != nil {
				return b, encoded, err
			}
			continue
		}
		enc := pg.enc.Load()
		if enc == nil {
			encoded++
			if enc, err = encodePage(pg.vals[:pg.n]); err != nil {
				return b, encoded, err
			}
			pg.enc.Store(enc)
		}
		b = append(b, enc.b...)
	}
	return b, encoded, nil
}

// MarshalJSON encodes the vector as a JSON array, from the pages' cache.
func (p Paged[T]) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 2+4*p.n), '[')
	b, _, err := p.appendRange(b, 0, p.n)
	if err != nil {
		return nil, err
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes a JSON array (or null, as the empty vector).
func (p *Paged[T]) UnmarshalJSON(data []byte) error {
	var vals []T
	if err := json.Unmarshal(data, &vals); err != nil {
		return err
	}
	*p = Paged[T]{}.Update(vals, nil)
	return nil
}

// appendElems appends vals as comma-separated JSON values, each exactly as
// encoding/json writes it. A non-nil end, one slot per value, receives the
// offset just past each value, counted from where the first began.
func appendElems[T PageElem](b []byte, vals []T, end []uint16) ([]byte, error) {
	switch v := any(vals).(type) {
	case []int64:
		return appendInts(b, v, end), nil
	case []int32:
		return appendInts(b, v, end), nil
	case []graph.NodeID:
		return appendInts(b, v, end), nil
	case []bool:
		start := len(b)
		for i, x := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, x)
			if end != nil {
				end[i] = uint16(len(b) - start)
			}
		}
		return b, nil
	case []float64:
		start := len(b)
		for i, x := range v {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, x); err != nil {
				return b, err
			}
			if end != nil {
				end[i] = uint16(len(b) - start)
			}
		}
		return b, nil
	}
	panic("unreachable: PageElem lists the cases above")
}

// AppendInts appends vals in decimal, comma-separated (a JSON array body)
// — the one integer-vector encoder behind both the daemon's view pages and
// the router's merged answer.
func AppendInts[T ~int32 | ~int64](b []byte, vals []T) []byte {
	return appendInts(b, vals, nil)
}

func appendInts[T ~int32 | ~int64](b []byte, vals []T, end []uint16) []byte {
	start := len(b)
	for i, x := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
		if end != nil {
			end[i] = uint16(len(b) - start)
		}
	}
	return b
}

// appendFloat appends f the way encoding/json formats a float64: the
// shortest representation that round-trips, exponent form only below
// 1e-6 or from 1e21 up (with the exponent's leading zero dropped), and
// an error for NaN and the infinities, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// pagedVec is a Paged[T] with its element type erased: what the view
// writer and the publication accounting need of a vector.
type pagedVec interface {
	Len() int
	numPages() int
	appendRange(b []byte, lo, hi int) ([]byte, int, error)
	costSince(prev pagedVec) publishCost
}

// cut is the part [lo, hi) of a vector.
type cut struct {
	v      pagedVec
	lo, hi int
}

// cutOf clips the node range [lo, hi) to v's length.
func cutOf(v pagedVec, lo, hi int) cut {
	hi = min(hi, v.Len())
	return cut{v, min(lo, hi), hi}
}

// viewField is one key of a view's data object: a number, one per-node
// vector, or (sim's matches) a list of vectors.
type viewField struct {
	name string
	num  int64
	vec  cut   // set when vec.v != nil
	list []cut // set when non-nil
}

// pagedView is implemented by the six view types: the view's JSON keys
// in declaration order, every per-node vector cut to the nodes [lo, hi).
type pagedView interface {
	viewFields(lo, hi int) []viewField
}

// vectorsOf lists the vectors a view holds, in field order.
func vectorsOf(data any) []pagedVec {
	pv, ok := data.(pagedView)
	if !ok {
		return nil
	}
	var out []pagedVec
	for _, f := range pv.viewFields(0, math.MaxInt) {
		if f.vec.v != nil {
			out = append(out, f.vec.v)
		}
		for _, c := range f.list {
			out = append(out, c.v)
		}
	}
	return out
}

// publishDelta reports what publishing the view cur after prev took,
// summed over its vectors. Views that hold no paged vectors report zeros.
func publishDelta(prev, cur any) (sum publishCost) {
	old := vectorsOf(prev)
	for i, v := range vectorsOf(cur) {
		var was pagedVec
		if i < len(old) {
			was = old[i]
		}
		c := v.costSince(was)
		sum.pages += c.pages
		sum.entries += c.entries
		sum.spliced += c.spliced
		sum.total += c.total
	}
	return sum
}
