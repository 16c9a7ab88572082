package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sssp"
)

func pagedOf[T PageElem](vals []T) Paged[T] { return Paged[T]{}.Update(vals, nil) }

// The plain mirrors of the envelope and the six view types: what the
// wire format is defined by. encoding/json reflects over these with no
// help from Paged, so comparing against them is not circular.
type (
	plainEnvelope struct {
		Algo     string  `json:"algo"`
		Epoch    uint64  `json:"epoch"`
		Batches  uint64  `json:"batches"`
		Degraded bool    `json:"degraded,omitempty"`
		Range    *[2]int `json:"range,omitempty"`
		Data     any     `json:"data"`
	}
	plainSSSP struct {
		Src  graph.NodeID `json:"src"`
		Dist []int64      `json:"dist"`
	}
	plainCC struct {
		Labels []int64 `json:"labels"`
	}
	plainSim struct {
		NQ      int              `json:"nq"`
		Count   int              `json:"count"`
		Matches [][]graph.NodeID `json:"matches"`
	}
	plainDFS struct {
		First  []int32        `json:"first"`
		Last   []int32        `json:"last"`
		Parent []graph.NodeID `json:"parent"`
	}
	plainLCC struct {
		Deg   []int32   `json:"deg"`
		Tri   []int64   `json:"tri"`
		Gamma []float64 `json:"gamma"`
	}
	plainBC struct {
		Articulation []bool `json:"articulation"`
		NumComps     int    `json:"num_comps"`
	}
)

// sub is the plain slice of p's nodes [lo, hi), never nil: a vector
// encodes as [] when empty.
func sub[T PageElem](p Paged[T], lo, hi int) []T {
	hi = min(hi, p.Len())
	return append([]T{}, p.Slice()[min(lo, hi):hi]...)
}

// plainData mirrors a paged view, per-node vectors cut to [lo, hi).
func plainData(t testing.TB, data any, lo, hi int) any {
	switch v := data.(type) {
	case SSSPView:
		return plainSSSP{v.Src, sub(v.Dist, lo, hi)}
	case CCView:
		return plainCC{sub(v.Labels, lo, hi)}
	case DFSView:
		return plainDFS{sub(v.First, lo, hi), sub(v.Last, lo, hi), sub(v.Parent, lo, hi)}
	case LCCView:
		return plainLCC{sub(v.Deg, lo, hi), sub(v.Tri, lo, hi), sub(v.Gamma, lo, hi)}
	case BCView:
		return plainBC{sub(v.Articulation, lo, hi), v.NumComps}
	case SimView:
		p := plainSim{NQ: v.NQ, Count: v.Count, Matches: make([][]graph.NodeID, len(v.Matches))}
		for u, m := range v.Matches {
			p.Matches[u] = []graph.NodeID{}
			for _, d := range m.Slice() {
				if int(d) >= lo && int(d) < hi {
					p.Matches[u] = append(p.Matches[u], d)
				}
			}
		}
		return p
	}
	t.Fatalf("no plain mirror for %T", data)
	return nil
}

// referenceJSON is the wire form of v (cut to rng): json.Marshal of its
// plain mirror and a newline.
func referenceJSON(t testing.TB, v *View, rng *[2]int) []byte {
	lo, hi := 0, math.MaxInt
	if rng != nil {
		lo, hi = rng[0], rng[1]
	}
	out, err := json.Marshal(plainEnvelope{v.Algo, v.Epoch, v.Batches, v.Degraded, rng, plainData(t, v.Data, lo, hi)})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// The boundary dictionaries the generated vectors draw from besides
// random values: what the encoders treat specially.
var (
	edgeInts   = []int64{0, 1, -1, 9, 10, 99, 100, 99999, 100000, graph.Infinity, graph.Infinity - 1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64}
	edgeLens   = []int{0, 1, 2, pageSize - 1, pageSize, pageSize + 1, 2 * pageSize, 2*pageSize + 17, 3*pageSize - 1, chunkSize * pageSize, chunkSize*pageSize + 5}
)

func genInts[T int32 | int64 | graph.NodeID](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = T(edgeInts[rng.Intn(len(edgeInts))]) // truncates for the 32-bit types: still a value of T
		} else {
			out[i] = T(rng.Uint64())
		}
	}
	return out
}

func genFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			out[i] = rng.Float64() // LCC's coefficients live in [0, 1]
		default:
			v, _ := quick.Value(reflect.TypeOf(float64(0)), rng)
			out[i] = v.Float()
		}
	}
	return out
}

func genBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 0
	}
	return out
}

// genViews builds one view of each class over n nodes.
func genViews(rng *rand.Rand, n int) []any {
	sim := SimView{NQ: rng.Intn(4), Count: rng.Intn(1000)}
	sim.Matches = make([]Paged[graph.NodeID], sim.NQ)
	for u := range sim.Matches {
		var m []graph.NodeID
		for d := 0; d < n; d++ {
			if rng.Intn(3) > 0 {
				m = append(m, graph.NodeID(d))
			}
		}
		if rng.Intn(3) == 0 {
			m = nil // a pattern node nothing matches
		}
		sim.Matches[u] = pagedOf(m)
	}
	return []any{
		SSSPView{Src: graph.NodeID(rng.Intn(n + 1)), Dist: pagedOf(genInts[int64](rng, n))},
		CCView{Labels: pagedOf(genInts[int64](rng, n))},
		sim,
		DFSView{pagedOf(genInts[int32](rng, n)), pagedOf(genInts[int32](rng, n)), pagedOf(genInts[graph.NodeID](rng, n))},
		LCCView{pagedOf(genInts[int32](rng, n)), pagedOf(genInts[int64](rng, n)), pagedOf(genFloats(rng, n))},
		BCView{Articulation: pagedOf(genBools(rng, n)), NumComps: rng.Intn(1 << 20)},
	}
}

// TestViewWriterMatchesEncodingJSON is the wire-format property: for all
// six view types, whole and cut to a range, the handler's writer produces
// json.Marshal's bytes of the plain mirror and a newline — first from cold
// pages, then again from the caches the first pass filled — and so, less
// the newline, does json.Marshal of the view itself (the oracle's, the
// followers' and the benchmark's path).
func TestViewWriterMatchesEncodingJSON(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := edgeLens[rng.Intn(len(edgeLens))]
		for _, data := range genViews(rng, n) {
			v := &View{Algo: "x<y>&\"z", Epoch: rng.Uint64(), Batches: rng.Uint64(), Degraded: rng.Intn(2) == 0, Data: data}
			lo := rng.Intn(n + 1)
			cut := &[2]int{lo, lo + rng.Intn(n-lo+1)}
			for _, r := range []*[2]int{nil, cut, {0, 0}, {n, n}, {0, n}} {
				want := referenceJSON(t, v, r)
				for pass := 0; pass < 2; pass++ {
					var w viewWriter
					if err := w.view(v, r); err != nil {
						t.Errorf("seed %d %T range %v: %v", seed, data, r, err)
						return false
					}
					if !bytes.Equal(w.b, want) {
						t.Errorf("seed %d %T n=%d range %v pass %d:\ngot  %q\nwant %q", seed, data, n, r, pass, w.b, want)
						return false
					}
				}
			}
			got, err := json.Marshal(v)
			want := bytes.TrimSuffix(referenceJSON(t, v, nil), []byte("\n"))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("seed %d %T: json.Marshal(view) = %q, %v; want %q", seed, data, got, err, want)
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < int64(len(edgeLens))*4; seed++ { // every edge length a few times
		if !check(seed) {
			return
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestViewWriterForeignData: a Serveable outside this package may
// snapshot anything; the writer falls back to encoding/json for the data
// and still matches json.Marshal on the envelope.
func TestViewWriterForeignData(t *testing.T) {
	for _, data := range []any{
		map[string]any{"b": []int{1, 2}, "a": map[string]int{}, "c": []int{}},
		struct{}{}, nil, 7, "s", []string{"<"},
	} {
		v := &View{Algo: "foreign", Epoch: 3, Batches: 2, Data: data}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var w viewWriter
		if err := w.view(v, nil); err != nil || !bytes.Equal(w.b, append(want, '\n')) {
			t.Errorf("%T: %v\ngot  %q\nwant %q", data, err, w.b, want)
		}
		w = viewWriter{}
		if err := w.view(v, &[2]int{0, 0}); err != errNoRange {
			t.Errorf("%T with a range: err %v, want errNoRange", data, err)
		}
	}
}

// TestPagedRoundTrip: Paged is the plain array as JSON, both ways.
func TestPagedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range edgeLens {
		vals := genFloats(rng, n)
		raw, err := json.Marshal(pagedOf(vals))
		want, _ := json.Marshal(append([]float64{}, vals...))
		if err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("n=%d: marshal %q, %v; want %q", n, raw, err, want)
		}
		var back Paged[float64]
		if err := json.Unmarshal(raw, &back); err != nil || !slices.Equal(back.Slice(), vals) {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
	}
	var p Paged[int64]
	if err := json.Unmarshal([]byte("null"), &p); err != nil || p.Len() != 0 {
		t.Fatalf("null: %v, len %d", err, p.Len())
	}
	if err := json.Unmarshal([]byte(`[1,"x"]`), &p); err == nil {
		t.Fatal("a string element decoded into Paged[int64]")
	}
	if _, err := json.Marshal(pagedOf([]float64{1, math.NaN()})); err == nil {
		t.Fatal("NaN marshaled")
	}
}

// TestPagedUpdateShares pins the sharing contract VerifyRecovered and
// the publication accounting rest on: Update copies exactly the pages
// whose content differs — with a written list or without — and a vector
// that did not change is the same vector.
func TestPagedUpdateShares(t *testing.T) {
	const n = (chunkSize+3)*pageSize + 9 // two chunks of the page table, the last page ragged
	cur := genInts[int64](rand.New(rand.NewSource(2)), n)
	p := pagedOf(cur)
	copied := func(q Paged[int64]) int { return q.costSince(p).pages }

	if q := p.Update(cur, nil); copied(q) != 0 || &q.chunks[0] != &p.chunks[0] {
		t.Fatalf("unchanged, nil list: %d pages copied", copied(q))
	}
	if q := p.Update(cur, []int32{0, 5, n - 1}); copied(q) != 0 || &q.chunks[0] != &p.chunks[0] {
		t.Fatalf("unchanged, superset list: %d pages copied", copied(q))
	}
	// Two entries of page 1 and one of the ragged last page change.
	next := slices.Clone(cur)
	next[pageSize]++
	next[pageSize+7]++
	next[n-1]++
	for name, written := range map[string][]int32{
		"nil":      nil,
		"exact":    {pageSize, pageSize + 7, n - 1},
		"superset": {3, n - 1, pageSize + 7, pageSize, pageSize, 2 * pageSize},
	} {
		q := p.Update(next, written)
		if !slices.Equal(q.Slice(), next) || copied(q) != 2 || q.page(0) != p.page(0) || q.page(2) != p.page(2) || q.page(chunkSize) != p.page(chunkSize) {
			t.Fatalf("%s: %d pages copied, want 2 (page 1 and the last)", name, copied(q))
		}
		if !slices.Equal(p.Slice(), cur) {
			t.Fatalf("%s: Update modified its receiver", name)
		}
	}
	// The path to a replaced page is copied, the rest of the table shared.
	one := slices.Clone(cur)
	one[pageSize]++
	if q := p.Update(one, []int32{pageSize}); q.chunks[0] == p.chunks[0] || q.chunks[1] != p.chunks[1] || copied(q) != 1 {
		t.Fatalf("one page of chunk 0 replaced: chunk 0 shared %v, chunk 1 shared %v, %d pages copied",
			q.chunks[0] == p.chunks[0], q.chunks[1] == p.chunks[1], copied(q))
	}
	// A length change rebuilds what it must and still shares equal pages.
	longer := append(slices.Clone(cur), 1, 2, 3)
	if q := p.Update(longer, []int32{}); !slices.Equal(q.Slice(), longer) || copied(q) != 1 {
		t.Fatalf("grown vector: %d pages copied, want the last one", copied(q))
	}
	if q := p.Update(cur[:pageSize], nil); q.Len() != pageSize || q.page(0) != p.page(0) {
		t.Fatal("shrunk vector does not share its first page")
	}
	if q := p.Update(nil, nil); q.Len() != 0 || q.numPages() != 0 {
		t.Fatal("empty vector kept pages")
	}
	// At and Slice agree across page boundaries.
	for _, i := range []int{0, pageSize - 1, pageSize, chunkSize*pageSize - 1, chunkSize * pageSize, n - 1} {
		if p.At(i) != cur[i] {
			t.Fatalf("At(%d) = %d, want %d", i, p.At(i), cur[i])
		}
	}
}

// changedValue returns a value near x: for the integers a step up or down
// (from the boundary values of edgeInts that is a change of width or
// sign: 9→10, 99999→100000, −1→0) or a fresh one, for bools the other one,
// for floats one of the values with an encoding of their own.
func changedValue[T PageElem](rng *rand.Rand, x T) T {
	step := int64(1 - 2*rng.Intn(2))
	var y any
	switch v := any(x).(type) {
	case int64:
		y = v + step
		if rng.Intn(4) == 0 {
			y = genInts[int64](rng, 1)[0]
		}
	case int32:
		y = v + int32(step)
	case graph.NodeID:
		y = max(v+graph.NodeID(step), 0) // the sim mirror drops negative ids; int32 covers −1→0
		if y == v {
			y = v + 1
		}
	case bool:
		y = !v
	case float64:
		y = genFloats(rng, 1)[0]
		if rng.Intn(3) == 0 {
			y = -v // 0 ↔ -0 among others: equal values, different bytes
		}
	}
	return y.(T)
}

// writtenMode is how a test tells Update what changed.
type writtenMode int

const (
	writtenNil writtenMode = iota
	writtenExact
	writtenSuperset
	numWrittenModes
)

// updated returns p's successor: a few entries changed — the first and the
// last of the vector among them, so both ends of a page's bytes move — and
// with grow != 0 that many entries appended (or, negative, cut off).
func updated[T PageElem](rng *rand.Rand, p Paged[T], mode writtenMode, grow int) Paged[T] {
	cur := p.Slice()
	var written []int32
	if n := len(cur); n > 0 {
		for _, i := range append([]int{0, n - 1}, rng.Perm(n)[:min(n, 1+rng.Intn(6))]...) {
			cur[i] = changedValue(rng, cur[i])
			written = append(written, int32(i))
		}
		if mode == writtenSuperset {
			written = append(written, written...)
			written = append(written, int32(rng.Intn(n)), int32(n/2))
		}
	}
	for ; grow > 0; grow-- {
		var zero T
		cur = append(cur, changedValue(rng, zero))
	}
	if grow < 0 {
		cur = cur[:max(0, len(cur)+grow)]
	}
	if mode == writtenNil {
		written = nil
	}
	return p.Update(cur, written)
}

// updatedView applies updated to every vector of a view; cold rebuilds the
// same values into pages nobody has read.
func updatedView(rng *rand.Rand, data any, mode writtenMode, grow int) (next, cold any) {
	switch v := data.(type) {
	case SSSPView:
		d := updated(rng, v.Dist, mode, grow)
		return SSSPView{v.Src, d}, SSSPView{v.Src, pagedOf(d.Slice())}
	case CCView:
		l := updated(rng, v.Labels, mode, grow)
		return CCView{l}, CCView{pagedOf(l.Slice())}
	case DFSView:
		f, l, p := updated(rng, v.First, mode, grow), updated(rng, v.Last, mode, grow), updated(rng, v.Parent, mode, grow)
		return DFSView{f, l, p}, DFSView{pagedOf(f.Slice()), pagedOf(l.Slice()), pagedOf(p.Slice())}
	case LCCView:
		d, t, g := updated(rng, v.Deg, mode, grow), updated(rng, v.Tri, mode, grow), updated(rng, v.Gamma, mode, grow)
		return LCCView{d, t, g}, LCCView{pagedOf(d.Slice()), pagedOf(t.Slice()), pagedOf(g.Slice())}
	case BCView:
		a := updated(rng, v.Articulation, mode, grow)
		return BCView{a, v.NumComps}, BCView{pagedOf(a.Slice()), v.NumComps}
	case SimView:
		n, c := SimView{NQ: v.NQ, Count: v.Count}, SimView{NQ: v.NQ, Count: v.Count}
		for _, m := range v.Matches {
			m = updated(rng, m, mode, grow)
			n.Matches, c.Matches = append(n.Matches, m), append(c.Matches, pagedOf(m.Slice()))
		}
		return n, c
	}
	panic(fmt.Sprintf("no update for %T", data))
}

// checkDerived is the born-cached property for one view: prev is read
// cold if read says so, every vector is updated, and the successor must
// then write json.Marshal's bytes — which are also what the same values
// write from pages nobody has read. If prev was read, no page may need
// encoding (the replaced pages were born cached); if it was not, every
// page must (nothing is derived for a page nobody read). The check then
// repeats on the successor, twice: a page derived from a derived page is
// spliced at the offsets the first splice wrote, and the check itself has
// by then read the view.
func checkDerived(t testing.TB, rng *rand.Rand, data any, read bool, mode writtenMode, grow int) error {
	if read {
		var w viewWriter
		if err := w.view(&View{Algo: "d", Data: data}, nil); err != nil {
			return err
		}
	}
	for round := 0; round < 3; round++ {
		nextData, coldData := updatedView(rng, data, mode, grow)
		next, cold := &View{Algo: "d", Epoch: 1, Data: nextData}, &View{Algo: "d", Epoch: 1, Data: coldData}
		want := referenceJSON(t, next, nil)
		total := publishDelta(nil, nextData).total
		var w, c viewWriter
		if err := w.view(next, nil); err != nil {
			return err
		}
		if err := c.view(cold, nil); err != nil {
			return err
		}
		if !bytes.Equal(w.b, want) || !bytes.Equal(c.b, want) {
			return fmt.Errorf("%T read %v mode %d grow %d round %d: %s", data, read, mode, grow, round, firstDiff(w.b, c.b, want))
		}
		switch {
		case !read && w.encoded != total:
			return fmt.Errorf("%T, never read before the update: %d of %d pages encoded, so some page carried a cache", data, w.encoded, total)
		case read && grow == 0 && w.encoded != 0:
			return fmt.Errorf("%T round %d, read before the update: %d pages were not born cached", data, round, w.encoded)
		}
		data, read, grow = nextData, true, 0
	}
	return nil
}

// firstDiff shows the three encodings around the first byte at which
// either of the first two departs from want.
func firstDiff(derived, cold, want []byte) string {
	at := 0
	for at < len(want) && at < len(derived) && at < len(cold) && derived[at] == want[at] && cold[at] == want[at] {
		at++
	}
	around := func(b []byte) []byte { return b[min(max(at-20, 0), len(b)):min(at+20, len(b))] }
	return fmt.Sprintf("at byte %d (lengths %d, %d, %d): derived …%q… cold …%q… want …%q…", at, len(derived), len(cold), len(want), around(derived), around(cold), around(want))
}

// TestDerivedPageMatchesColdEncode runs checkDerived over all six view
// types (all five element types; sim's lists nest a level deeper) at the
// boundary lengths and random ones, read before the update and not, for
// every way of telling Update what changed, with and without a length
// change.
func TestDerivedPageMatchesColdEncode(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := edgeLens[rng.Intn(len(edgeLens))]
		if rng.Intn(3) == 0 {
			n = rng.Intn(3 * pageSize)
		}
		grow := []int{0, 0, 0, 3, -3, pageSize}[rng.Intn(6)]
		for _, data := range genViews(rng, n) {
			if err := checkDerived(t, rng, data, rng.Intn(2) == 0, writtenMode(rng.Intn(int(numWrittenModes))), grow); err != nil {
				t.Errorf("seed %d n=%d: %v", seed, n, err)
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 80; seed++ {
		if !check(seed) {
			return
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedPageWidthChanges pins the cases a splice can get wrong by
// name: an entry whose encoding changes width or sign, at the first and
// the last position of a full and of a ragged page, with unchanged
// entries after it whose offsets must move.
func TestDerivedPageWidthChanges(t *testing.T) {
	for _, n := range []int{pageSize, pageSize + 3, 2} {
		for _, step := range [][2]int64{{9, 10}, {10, 9}, {99999, 100000}, {-1, 0}, {0, -1}, {graph.Infinity, 0}, {5, 7}} {
			for _, at := range []int{0, 1, n / 2, n - 1} {
				prev := make([]int64, n)
				for i := range prev {
					prev[i] = int64(i % 13)
				}
				prev[at] = step[0]
				cur := slices.Clone(prev)
				cur[at] = step[1]
				p := pagedOf(prev)
				if _, _, err := p.appendRange(nil, 0, n); err != nil {
					t.Fatal(err)
				}
				q := p.Update(cur, []int32{int32(at)})
				// A second update on top of the derived page reads the offsets
				// the first one wrote.
				cur[n-1-at%2] += 1000
				r := q.Update(cur, nil)
				got, encoded, _ := r.appendRange(nil, 0, n)
				want, _, _ := pagedOf(cur).appendRange(nil, 0, n)
				if !bytes.Equal(got, want) || encoded != 0 {
					t.Fatalf("n=%d %d→%d at %d: %d pages encoded; %s", n, step[0], step[1], at, encoded, firstDiff(got, want, want))
				}
				if c := r.costSince(p); c.spliced == 0 {
					t.Fatalf("n=%d at %d: nothing counted as spliced: %+v", n, at, c)
				}
			}
		}
	}
}

// TestDerivedPageCatchesMissedShift shows the byte comparison the tests
// above rest on has teeth: a derived page whose offsets were not moved
// after a width change (the bug a splice is most likely to have) yields
// wrong bytes at the next update.
func TestDerivedPageCatchesMissedShift(t *testing.T) {
	prev := []int64{9, 1, 2, 3, 4, 5}
	p := pagedOf(prev)
	if _, _, err := p.appendRange(nil, 0, len(prev)); err != nil {
		t.Fatal(err)
	}
	cur := slices.Clone(prev)
	cur[0] = 10
	q := p.Update(cur, []int32{0})
	good := q.page(0).enc.Load()
	if string(good.b) != "10,1,2,3,4,5" {
		t.Fatalf("derived bytes %q", good.b)
	}
	// The mutant: same bytes, the offsets of before the width change.
	q.page(0).enc.Store(&encodedPage{b: good.b, end: p.page(0).enc.Load().end})
	cur[4] = 77
	got, _, _ := q.Update(cur, []int32{4}).appendRange(nil, 0, len(cur))
	if want := "10,1,2,3,77,5"; string(got) == want {
		t.Fatalf("unshifted offsets still spliced to %q: the comparison cannot see a missed shift", got)
	}
}

// TestPublishGuards: an apply that changes nothing publishes by sharing
// every page and allocating a constant amount, and the written lists
// the adapters feed Update cost no allocation to read.
func TestPublishGuards(t *testing.T) {
	const n = 8 * pageSize
	g := graph.New(n, false)
	for v := 1; v < n; v++ {
		g.InsertEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
	}
	sInc, cInc := sssp.NewInc(g.Clone(), 0), cc.NewInc(g.Clone())
	for _, m := range []Serveable{SSSP(sInc), CC(cInc)} {
		first := m.Snapshot()
		// Re-inserting an existing edge at its weight changes no answer.
		noop := graph.Batch{{Kind: graph.InsertEdge, From: 3, To: 4, W: 1}}
		var snap any
		allocs := testing.AllocsPerRun(20, func() {
			applyAlone(m, noop)
			snap = m.Snapshot()
		})
		if c := publishDelta(first, snap); c.pages != 0 || c.total == 0 {
			t.Errorf("%s: a no-op apply copied %d of %d pages", m.Algo(), c.pages, c.total)
		}
		// Apply itself allocates a little (the applied-batch slice, stats);
		// the bound only has to exclude anything proportional to n/pageSize.
		if allocs > 12 {
			t.Errorf("%s: no-op apply+publish allocates %.0f objects", m.Algo(), allocs)
		}
		// A real change copies the pages it touched and no others.
		applyAlone(m, graph.Batch{{Kind: graph.DeleteEdge, From: n - 2, To: n - 1}})
		if c := publishDelta(snap, m.Snapshot()); c.pages != 1 || c.total != n/pageSize {
			t.Errorf("%s: cutting off the last node copied %d of %d pages, want 1", m.Algo(), c.pages, c.total)
		}
		// Two applies between snapshots: the written list covers only the
		// second, so the adapter must fall back to comparing.
		applyAlone(m, graph.Batch{{Kind: graph.DeleteEdge, From: 0, To: 1}})
		applyAlone(m, noop)
		want, _ := json.Marshal(m.Snapshot())
		m.Recompute()
		if got, _ := json.Marshal(m.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot after two applies differs from the recompute", m.Algo())
		}
	}
	if a := testing.AllocsPerRun(100, func() { _ = sInc.Written() }); a != 0 {
		t.Errorf("sssp Written allocates %.0f", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = cInc.Written() }); a != 0 {
		t.Errorf("cc Written allocates %.0f", a)
	}
}

// BenchmarkPagedUpdate: publishing 12 scattered changes costs the same
// at |V| = 25k and 400k when a written list names them (the changes stay
// inside the first 25k entries at both sizes), and one comparison pass
// over the vector when none does.
func BenchmarkPagedUpdate(b *testing.B) {
	for _, n := range []int{25000, 400000} {
		rng := rand.New(rand.NewSource(1))
		cur := genInts[int64](rng, n)
		p := pagedOf(cur)
		written := make([]int32, 12)
		for name, list := range map[string]func() []int32{"written-12": func() []int32 { return written }, "nil": func() []int32 { return nil }} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range written {
						written[j] = int32(rng.Intn(25000))
						cur[written[j]]++
					}
					p = p.Update(cur, list())
				}
			})
		}
	}
}

func BenchmarkViewWrite(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = int64(rng.Intn(40))
	}
	p := pagedOf(cur)
	for _, dirty := range []int{0, 75, n} {
		b.Run(map[int]string{0: "warm", 75: "75-changed", n: "cold"}[dirty], func(b *testing.B) {
			w := viewWriter{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				switch dirty {
				case n:
					p = Paged[int64]{}.Update(cur, nil)
				case 0:
				default:
					written := make([]int32, dirty)
					for j := range written {
						written[j] = int32(rng.Intn(n))
						cur[written[j]]++
					}
					p = p.Update(cur, written)
				}
				w.b = w.b[:0]
				if err := w.view(&View{Algo: "sssp", Data: SSSPView{Dist: p}}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(w.b)))
		})
	}
}

// TestDerivedPageLCCWrittenList: the LCC adapter publishes from the
// maintainer's written scope. After one apply, Snapshot replaces only
// pages that hold a written node — in all three vectors, γ included,
// which is derived at the written nodes alone — and the view is the one a
// maintainer freshly built on the same graph publishes. When no list
// describes the change (two applies between snapshots, Recompute,
// RestoreState) the adapter compares instead, and the view is still that.
func TestDerivedPageLCCWrittenList(t *testing.T) {
	const n = 6 * pageSize
	g := graph.New(n, false)
	for v := graph.NodeID(2); v < n; v++ { // a strip of triangles {v-2, v-1, v}
		g.InsertEdge(v-2, v, 1)
		g.InsertEdge(v-1, v, 1)
	}
	inc := lcc.NewInc(g)
	m := LCC(inc)
	checkFresh := func(when string) LCCView {
		t.Helper()
		view := m.Snapshot().(LCCView)
		got, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(LCC(lcc.NewInc(m.Graph().Clone())).Snapshot())
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: published view differs from a fresh maintainer's: %s", when, firstDiff(got, want, want))
		}
		return view
	}
	prev := checkFresh("initially")

	// One apply inside page 3: the written nodes sit in that page.
	at := graph.NodeID(3*pageSize + 100)
	applyAlone(m, graph.Batch{{Kind: graph.DeleteEdge, From: at, To: at + 1}, {Kind: graph.InsertEdge, From: at, To: at + 5, W: 1}})
	holds := map[int]bool{}
	for _, v := range inc.Written() {
		holds[int(v)>>pageShift] = true
	}
	if len(inc.Written()) == 0 || len(holds) != 1 {
		t.Fatalf("written %v: want a non-empty set within page 3", inc.Written())
	}
	cur := checkFresh("after one apply")
	for k := 0; k < cur.Deg.numPages(); k++ {
		copied := cur.Deg.page(k) != prev.Deg.page(k) || cur.Tri.page(k) != prev.Tri.page(k) || cur.Gamma.page(k) != prev.Gamma.page(k)
		if copied && !holds[k] {
			t.Errorf("page %d was copied and holds no written node", k)
		}
	}
	if c := publishDelta(prev, cur); c.pages != 3 || c.total != 3*n/pageSize {
		t.Errorf("one apply copied %d of %d pages, want one per vector", c.pages, c.total)
	}
	if a := testing.AllocsPerRun(100, func() { _ = inc.Written() }); a != 0 {
		t.Errorf("lcc Written allocates %.0f", a)
	}

	// Two applies, in pages 0 and 5: the list covers the second only.
	applyAlone(m, graph.Batch{{Kind: graph.DeleteEdge, From: 10, To: 11}})
	applyAlone(m, graph.Batch{{Kind: graph.DeleteEdge, From: 5*pageSize + 10, To: 5*pageSize + 11}})
	checkFresh("after two applies")

	// RestoreState: the restored status is what must be published, even
	// where it is not what the graph says.
	r := m.(*adapter[*lcc.Inc, LCCView]).m.Result()
	restored := lcc.Result{Deg: slices.Clone(r.Deg), Tri: slices.Clone(r.Tri)}
	restored.Tri[4*pageSize+7] += 5
	blob := appendState(nil, stateVecs("lcc"), &classState{Deg: restored.Deg, Tri: restored.Tri})
	if err := m.RestoreState(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	view := m.Snapshot().(LCCView)
	if got := view.Tri.At(4*pageSize + 7); got != restored.Tri[4*pageSize+7] {
		t.Errorf("after RestoreState the view holds λ = %d, the restored state %d", got, restored.Tri[4*pageSize+7])
	}
	if got, want := view.Gamma.At(4*pageSize+7), restored.Gamma(4*pageSize+7); got != want {
		t.Errorf("after RestoreState the view holds γ = %v, the restored state gives %v", got, want)
	}

	// Recompute heals it: no apply has happened since that Snapshot, and
	// the new maintainer's list is empty, yet the view must change.
	m.Recompute()
	checkFresh("after Recompute")
}
