package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := New(25, directed)
		for v := 0; v < 25; v++ {
			g.SetLabel(NodeID(v), Label(rng.Intn(4)))
		}
		g.Apply(randomBatch(rng, 25, 120))

		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Directed() != g.Directed() || got.NumNodes() != g.NumNodes() {
			t.Fatal("shape mismatch")
		}
		if !reflect.DeepEqual(edgeSet(got), edgeSet(g)) {
			t.Fatal("edges mismatch")
		}
		for v := 0; v < 25; v++ {
			if got.Label(NodeID(v)) != g.Label(NodeID(v)) {
				t.Fatalf("label mismatch at %d", v)
			}
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
graph directed 3

v 1 7
e 0 1 5
# trailing comment
e 1 2 2
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 5 || g.Weight(1, 2) != 2 || g.Label(1) != 7 {
		t.Fatal("content wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                                   // missing header
		"e 0 1 5",                            // edge before header
		"v 0 1",                              // vertex before header
		"graph directed",                     // malformed header
		"graph sideways 3",                   // bad kind
		"graph directed -1",                  // bad count
		"graph directed 2\ne 0 5 1",          // out of range
		"graph directed 2\nv 9 1",            // vertex out of range
		"graph directed 2\ne 0 1",            // malformed edge
		"graph directed 2\nzz 1 2",           // unknown record
		"graph directed 2\ngraph directed 2", // duplicate header
		"graph directed 2\ne 0 1 1\ne 0 1 2", // duplicate edge
		"graph directed 2\ne 1 1 1",          // self-loop
		"graph directed 2\ne 0 1 -5",         // negative weight
		fmt.Sprintf("graph directed 2\ne 0 1 %d", Infinity),             // weight at Infinity
		fmt.Sprintf("graph directed 2\ne 0 1 %d", int64(math.MaxInt64)), // d + w would wrap
		// A number with anything glued to it, in every position: Sscanf read
		// "3x" as 3 when it stood last on its line.
		"graph directed 2x", "graph directed 1_0", "graph directed 0x2",
		"graph directed 2\ne 0 1 3x", "graph directed 2\ne 0x 1 3", "graph directed 2\ne 0 1x 3", "graph directed 2\ne 0 1 1_0",
		"graph directed 2\nv 1 7x", "graph directed 2\nv 1x 7",
		// Values their type cannot hold: a count or a label past 2³¹ − 1
		// (read at 64 bits they were narrowed), an id past 2⁶³ − 1.
		"graph directed 2147483648", "graph directed 2\nv 1 4294967301", "graph directed 2\ne 0 9223372036854775808 1",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
	// What stays accepted: signs, any Unicode white space, \r\n, comments.
	g, err := Read(strings.NewReader("\u00a0graph\u2003directed +3 \r\n#x\nv +1 -7\ne +0 +1 -0\n"))
	if err != nil || g.NumNodes() != 3 || g.Label(1) != -7 || g.Weight(0, 1) != 0 {
		t.Fatalf("signed, oddly spaced file: %v", err)
	}
	// A rejected weight names its line and edge; the largest legal one loads.
	_, err = Read(strings.NewReader(fmt.Sprintf("graph directed 3\ne 0 1 %d\ne 1 2 %d\n", Infinity-1, Infinity)))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "(1,2)") {
		t.Fatalf("want positioned weight error, got %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{
		{Kind: InsertEdge, From: 1, To: 2, W: 7},
		{Kind: DeleteEdge, From: 3, To: 0},
		{Kind: InsertEdge, From: 0, To: 4, W: 1},
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != b[0] || got[2] != b[2] {
		t.Fatalf("round trip = %v", got)
	}
	if got[1].Kind != DeleteEdge || got[1].From != 3 || got[1].To != 0 {
		t.Fatalf("delete round trip = %v", got[1])
	}
}

// The batch text format must round-trip exactly — including the removed
// weight recorded on deletions (as produced by Graph.Apply), which the
// writer emits as a fourth field.
func TestBatchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, 20, 40)
		// Give some deletions a recorded weight, as Graph.Apply does.
		for i := range b {
			if b[i].Kind == DeleteEdge && rng.Intn(2) == 0 {
				b[i].W = int64(rng.Intn(50) + 1)
			}
		}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, b); err != nil {
			return false
		}
		got, err := ReadBatch(&buf)
		if err != nil {
			return false
		}
		if len(b) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// An applied batch serialized to text, read back, and inverted must
// restore the exact edge set — the crash-recovery path of a service that
// journals its applied batches.
func TestSerializedInverseRestores(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(12, seed%2 == 0)
		g.Apply(randomBatch(rng, 12, 40))
		before := edgeSet(g)
		applied := g.Apply(randomBatch(rng, 12, 30))
		var buf bytes.Buffer
		if err := WriteBatch(&buf, applied); err != nil {
			t.Fatal(err)
		}
		reread, err := ReadBatch(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reread, applied) && len(applied) > 0 {
			t.Fatalf("seed %d: applied batch did not round-trip: %v vs %v", seed, reread, applied)
		}
		g.Apply(reread.Inverse())
		if !reflect.DeepEqual(edgeSet(g), before) {
			t.Fatalf("seed %d: inverse of serialized batch did not restore the edge set", seed)
		}
	}
}

func TestReadBatchTolerant(t *testing.T) {
	in := "# comment\n\n+ 1 2 3\n- 4 5\n"
	b, err := ReadBatch(strings.NewReader(in))
	if err != nil || len(b) != 2 {
		t.Fatalf("b=%v err=%v", b, err)
	}
}

func TestReadBatchErrors(t *testing.T) {
	for _, in := range []string{
		"* 1 2", "+ 1 2", "- 1", "+ a b c",
		"+ -1 2 3",                  // negative node id
		"+ 1 2 -3",                  // negative weight
		"- 1 -2",                    // negative node id on delete
		"+ 1 2 9223372036854775807", // weight that would wrap d + W
		"+ 1 2 2305843009213693951", // weight at Infinity
		"+ 2147483648 1 7",          // id past NodeID: narrowed, it was −2³¹
		"+ 4294967296 4294967301 7", // ids past uint32: narrowed, they were nodes 0 and 5
		"- 1 4294967301",
	} {
		if _, err := ReadBatch(strings.NewReader(in)); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
	// Errors carry the 1-based line number of the offending update.
	_, err := ReadBatch(strings.NewReader("# ok\n+ 0 1 2\n+ 1 2 -9\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

// TestReadBatchGluedGarbage: a number with anything glued to it is a
// line-numbered error in every position — Sscanf used to read "3x" as 3
// when it came last.
func TestReadBatchGluedGarbage(t *testing.T) {
	for _, in := range []string{"+ 1 2 3x", "+ 1x 2 3", "+ 1 2x 3", "- 1 2x", "- 1 2x 3", "- 1 2 3x", "- 1x 2", "+ 1 2 0x10", "+ 1 2 1_0"} {
		_, err := ReadBatch(strings.NewReader("+ 7 8 9\n" + in + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: err %v, want an error naming line 2", in, err)
		}
	}
	// What stays accepted: signs, any Unicode white space, \r\n, comments.
	b, err := ReadBatch(strings.NewReader("\u00a0+ +1\u2003+2 +3 \r\n#x\n- 4 5 -0\n"))
	want := Batch{{Kind: InsertEdge, From: 1, To: 2, W: 3}, {Kind: DeleteEdge, From: 4, To: 5}}
	if err != nil || !reflect.DeepEqual(b, want) {
		t.Fatalf("got %v, %v; want %v", b, err, want)
	}
}

func TestReadBatchDeletionWeight(t *testing.T) {
	b, err := ReadBatch(strings.NewReader("- 3 4 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Update{Kind: DeleteEdge, From: 3, To: 4, W: 7}
	if len(b) != 1 || b[0] != want {
		t.Fatalf("got %v, want %v", b, want)
	}
}

// failAfter errors once n bytes have been written, exercising the
// serializers' error paths.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWrite
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWrite
	}
	f.n -= len(p)
	return len(p), nil
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestWriteErrors(t *testing.T) {
	g := New(5, true)
	g.SetLabel(1, 3)
	for v := 0; v < 4; v++ {
		g.InsertEdge(NodeID(v), NodeID(v+1), 1)
	}
	var full bytes.Buffer
	if _, err := g.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	// A writer failing at any byte offset must surface an error.
	for n := 0; n < full.Len(); n += 7 {
		if _, err := g.WriteTo(&failAfter{n: n}); err == nil {
			t.Fatalf("no error when failing after %d bytes", n)
		}
	}
	if err := WriteBatch(&failAfter{n: 2}, Batch{{Kind: InsertEdge, From: 0, To: 1, W: 1}}); err == nil {
		t.Fatal("WriteBatch ignored write failure")
	}
	if err := WriteBatch(&failAfter{n: 2}, Batch{{Kind: DeleteEdge, From: 0, To: 1}}); err == nil {
		t.Fatal("WriteBatch ignored delete write failure")
	}
}

func TestWriteDeterministic(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(0, 1, 1)
	g.InsertEdge(1, 2, 3)
	g.SetLabel(2, 9)
	var a, b bytes.Buffer
	g.WriteTo(&a)
	g.WriteTo(&b)
	if a.String() != b.String() {
		t.Fatal("serialization not deterministic")
	}
	if !strings.Contains(a.String(), "graph undirected 3") {
		t.Fatalf("header missing: %q", a.String())
	}
}

// BenchmarkReadBatch parses the two request bodies the repository
// benchmark posts: trickle's 8 updates and burst's 400.
func BenchmarkReadBatch(b *testing.B) {
	for _, lines := range []int{8, 400} {
		rng := rand.New(rand.NewSource(1))
		batch := make(Batch, lines)
		for i := range batch {
			batch[i] = Update{Kind: UpdateKind(i % 2), From: NodeID(rng.Intn(100000)), To: NodeID(rng.Intn(100000))}
			if batch[i].Kind == InsertEdge {
				batch[i].W = int64(rng.Intn(100) + 1)
			}
		}
		var body bytes.Buffer
		if err := WriteBatch(&body, batch); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(body.Len()))
			for i := 0; i < b.N; i++ {
				got, err := ReadBatch(bytes.NewReader(body.Bytes()))
				if err != nil || len(got) != lines {
					b.Fatalf("%d updates, %v", len(got), err)
				}
			}
		})
	}
}

// TestReadChunks pins the cases where a chunked parse could part from a
// line-by-line read, each at one to four chunks: every chunk count must
// give the same graph or the same error text, and that the line-by-line
// reference's graph or line. For two chunks each case first checks that
// its lines fall where it says: a repeat in a later chunk than the edge it
// repeats; a repeat in the first chunk before a syntax error in the
// second, and the other way round; a comment and CRLF endings at the
// boundary; a last line without its newline.
func TestReadChunks(t *testing.T) {
	pad := strings.Repeat("# padding\n", 10)
	for _, tc := range []struct {
		name string
		in   string
		// at[i] is a line that must fall in chunk i of two, and opens what
		// the second must start with.
		at    [2]int
		opens string
		want  string // the error, "" to accept
	}{
		{"repeat in a later chunk", "graph undirected 4\ne 0 1 1\n" + pad + "e 2 3 1\ne 1 0 1\ne 1 2 x\n",
			[2]int{2, 14}, "", "graph: line 14: duplicate or degenerate edge (1,0)"},
		{"first chunk repeat before second chunk syntax error", "graph directed 4\ne 0 1 1\ne 0 1 2\n" + pad + "e 1 2 x\n",
			[2]int{3, 14}, "", "graph: line 3: duplicate or degenerate edge (0,1)"},
		{"first chunk syntax error before second chunk repeat", "graph directed 4\ne 0 1 1\ne 1 2 x\n" + pad + "e 0 1 1\n",
			[2]int{3, 14}, "", `graph: line 3: strconv.ParseInt: parsing "x": invalid syntax`},
		{"self-loop in a later chunk after a repeat", "graph directed 4\ne 0 1 1\n" + pad + "e 0 1 1\ne 2 2 1\n",
			[2]int{2, 13}, "", "graph: line 13: duplicate or degenerate edge (0,1)"},
		{"comment and CRLF at the boundary", "graph directed 4\r\ne 0 1 1\r\nv 1 7\r\n" + strings.ReplaceAll(pad, "\n", "\r\n") + "e 1 2 3\r\ne 0 9 1\r\n",
			[2]int{3, 14}, "# padding\r\n", "graph: line 15: edge (0,9) out of range"},
		{"no trailing newline", "graph directed 4\ne 0 1 1\n" + pad + "v 3 -2\ne 1 2 5",
			[2]int{2, 14}, "", ""},
		{"no trailing newline, an error on the last line", "graph directed 4\ne 0 1 1\n" + pad + "e 1 2",
			[2]int{2, 13}, "", "graph: line 13: malformed e line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, rest, first, err := readHeader([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			chunks := splitLines(rest, 2, first)
			if len(chunks) != 2 {
				t.Fatalf("%d chunks of two", len(chunks))
			}
			if !bytes.HasPrefix(chunks[1].text, []byte(tc.opens)) {
				t.Fatalf("the second chunk opens %q, want %q", chunks[1].text[:min(len(chunks[1].text), 12)], tc.opens)
			}
			for i, line := range tc.at {
				if end := chunks[i].line + bytes.Count(chunks[i].text, []byte{'\n'}); line < chunks[i].line || line > end {
					t.Fatalf("line %d is not in chunk %d (lines %d to %d)", line, i, chunks[i].line, end)
				}
			}
			ref, refErr := readSscanf(strings.NewReader(tc.in))
			for parts := 1; parts <= 4; parts++ {
				g, err := readText([]byte(tc.in), nil, parts)
				switch {
				case tc.want == "" && (err != nil || refErr != nil || !sameGraph(g, ref)):
					t.Fatalf("%d chunks: %v; the reference %v", parts, err, refErr)
				case tc.want != "" && (err == nil || err.Error() != tc.want):
					t.Fatalf("%d chunks: %v, want %s", parts, err, tc.want)
				case tc.want != "" && errLine("graph", err) != errLine("graph", refErr):
					t.Fatalf("%d chunks: %v; the reference %v", parts, err, refErr)
				}
			}
		})
	}
}

// TestReadLongLineAndReadError: Read keeps the two errors the scanner it
// used to read through gave. A line of maxLine bytes or more is refused
// with bufio.ErrTooLong unless an error comes before it, and one byte
// shorter is read; a reader's error comes after every error in what it
// delivered — a line it cut short included — and a graph whose reader
// failed is refused.
func TestReadLongLineAndReadError(t *testing.T) {
	long := "#" + strings.Repeat("x", maxLine-1)
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"line one byte short of the limit", "graph directed 2\n" + long[:maxLine-1] + "\ne 0 1 1\n", nil},
		{"line at the limit", "graph directed 2\ne 0 1 1\n" + long + "\n", bufio.ErrTooLong},
		{"line at the limit before the header", long, bufio.ErrTooLong},
		{"line at the limit after a repeat", "graph directed 2\ne 0 1 1\ne 0 1 1\n" + long, errors.New("graph: line 3: duplicate or degenerate edge (0,1)")},
	} {
		_, refErr := readSscanf(strings.NewReader(tc.in))
		for parts := 1; parts <= 2; parts++ {
			if _, err := readText([]byte(tc.in), nil, parts); fmt.Sprint(err) != fmt.Sprint(tc.want) || fmt.Sprint(refErr) != fmt.Sprint(tc.want) {
				t.Fatalf("%s, %d chunks: %v; the reference %v; want %v", tc.name, parts, err, refErr, tc.want)
			}
		}
	}

	failing := errors.New("disk on fire")
	for _, tc := range []struct {
		name, in string
		want     string
	}{
		{"clean prefix", "graph directed 3\ne 0 1 1\ne 1 2 1", failing.Error()},
		{"cut mid-record", "graph directed 3\ne 0 1 1\ne 1", "graph: line 3: malformed e line"},
		{"repeat in the prefix", "graph directed 3\ne 0 1 1\ne 0 1 1\n", "graph: line 3: duplicate or degenerate edge (0,1)"},
		{"no header yet", "# c\n", failing.Error()},
	} {
		read := func() io.Reader { return io.MultiReader(strings.NewReader(tc.in), iotest.ErrReader(failing)) }
		_, err := Read(read())
		_, refErr := readSscanf(read())
		if fmt.Sprint(err) != tc.want || fmt.Sprint(refErr) != tc.want {
			t.Fatalf("%s: %v; the reference %v; want %s", tc.name, err, refErr, tc.want)
		}
	}
}
