package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readSscanf is Read as it was while it went through strings.Fields and
// fmt.Sscanf, kept as the reference FuzzRead compares the parser against.
// Like Read it scans the node count and the labels at their types' width,
// so a value past 2³¹ − 1 is an error, not a narrowed number.
func readSscanf(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "graph":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header", line)
			}
			var n int32
			if _, err := fmt.Sscanf(fields[2], "%d", &n); err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[2])
			}
			switch fields[1] {
			case "directed":
				g = New(int(n), true)
			case "undirected":
				g = New(int(n), false)
			default:
				return nil, fmt.Errorf("graph: line %d: bad kind %q", line, fields[1])
			}
		case "v":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: v before header", line)
			}
			var id int64
			var label int32
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed v line", line)
			}
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &id, &label); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if id < 0 || id >= int64(g.NumNodes()) {
				return nil, fmt.Errorf("graph: line %d: node %d out of range", line, id)
			}
			g.SetLabel(NodeID(id), Label(label))
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: e before header", line)
			}
			var u, v, wgt int64
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed e line", line)
			}
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &u, &v, &wgt); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if u < 0 || u >= int64(g.NumNodes()) || v < 0 || v >= int64(g.NumNodes()) {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range", line, u, v)
			}
			if err := checkWeight(wgt); err != nil {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d): %v", line, u, v, err)
			}
			if !g.InsertEdge(NodeID(u), NodeID(v), wgt) {
				return nil, fmt.Errorf("graph: line %d: duplicate or degenerate edge (%d,%d)", line, u, v)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	return g, nil
}

// gluedLast reports whether the last field of the given 1-based line of in
// is a decimal with something glued to it ("3x", "1_0", "0x10"): the one
// field Sscanf read the prefix of, since nothing had to follow it, and the
// one input the reference accepts and Read refuses.
func gluedLast(in string, line int) bool {
	lines := strings.Split(in, "\n")
	if line < 1 || line > len(lines) {
		return false
	}
	fields := strings.Fields(lines[line-1])
	if len(fields) < 2 {
		return false
	}
	last := fields[len(fields)-1]
	if _, err := strconv.ParseInt(last, 10, 64); err == nil {
		return false
	}
	digits := strings.TrimLeft(last, "+-")
	return len(last)-len(digits) <= 1 && digits != "" && digits[0] >= '0' && digits[0] <= '9'
}

// sameGraph reports whether a and b are the same graph held the same way:
// kind, labels, and every row in order.
func sameGraph(a, b *Graph) bool {
	if a.Directed() != b.Directed() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := NodeID(v)
		if a.Label(id) != b.Label(id) || !slices.Equal(a.Out(id), b.Out(id)) || !slices.Equal(a.In(id), b.In(id)) {
			return false
		}
	}
	return true
}

// FuzzRead exercises the graph parser differentially and by round trip: it
// never panics, it reads the same graph or gives the same error text at
// one, two, three and four chunks, it accepts what the Sscanf-based
// reference accepts, as an equal graph, and names the same line in its
// errors — except a number
// with garbage glued to it, which the reference read the prefix of when it
// stood last on its line and Read refuses — and anything accepted
// re-serializes and re-parses to an equal graph.
func FuzzRead(f *testing.F) {
	f.Add("graph directed 3\nv 1 7\ne 0 1 5\ne 1 2 2\n")
	f.Add("graph undirected 2\ne 0 1 1\n")
	f.Add("# comment\n\ngraph directed 0\n")
	f.Add("graph directed 2\ne 0 1 -5\n")
	f.Add("e 0 1 1")
	f.Add("graph directed 999999\n")
	// Where the two parsers could part: signs, underscores, other bases,
	// glued garbage in every position of every record, ids and values at and
	// past 2³¹ and 2⁶³, a second header, Unicode white space, carriage
	// returns, a comment glued to a record.
	f.Add("graph directed +5\nv +1 +7\ne +0 +1 +5\ne 1 2 -0\n")
	f.Add("graph directed 1_0\n")
	f.Add("graph directed 4\ne 1_0 2 3\n")
	f.Add("graph directed 4\ne 1 2 1_0\n")
	f.Add("graph directed 4\ne 0x1 2 3\ne 1 2 0x10\n")
	f.Add("graph directed 4x\n")
	f.Add("graph directed 4\ne 1 2 3x\n")
	f.Add("graph directed 4\ne 1x 2 3\n")
	f.Add("graph directed 4\ne 1 2x 3\n")
	f.Add("graph directed 4\nv 1 7x\n")
	f.Add("graph directed 4\nv 1x 7\n")
	f.Add("graph directed 4\ne 2147483648 1 7\n")
	f.Add("graph directed 4\ne 4294967296 4294967301 7\n")
	f.Add("graph directed 4\ne 1 2 9223372036854775808\n")
	f.Add("graph directed 4\nv 4294967297 1\n")
	f.Add("graph directed 4\nv 1 2147483648\nv 1 4294967301\n")
	f.Add("graph directed 2147483648\n")
	f.Add("graph directed 4\ngraph directed 4\n")
	f.Add("graph directed 4\ngraph undirected 9 9\n")
	f.Add("graph directed 4\ne 1 2 2305843009213693950\ne 2 3 2305843009213693951\n")
	f.Add("graph undirected 4\ne 1 2 3\ne 2 1 3\n")
	f.Add("graph undirected 4\ne 2 2 3\n")
	f.Add("\u00a0graph\u2003directed\u20284\u0085\n \te 1 2 3 \r\n")
	f.Add("graph directed 4 # c\n")
	f.Add("graph directed 4\ne 1 2 3#c\n#e 1 2 3\ne 1 2 \xff\n")
	// Where the table tokenizer and the digit loop could part from
	// unicode.IsSpace and strconv: CRLF, U+00A0 and U+0085 between fields,
	// a stray byte at or past 0x80 alone or glued on, explicit signs,
	// leading zeros, and numbers of 18, 19 and 20 digits at every width.
	f.Add("graph directed 3\r\nv 1 7\r\ne 0 1 5\r\ne 1 2 2\r\n")
	f.Add("graph directed\u00853\ne 0\u00851 5\n\u0085v 1 7 \n")
	f.Add("graph directed 3\ne 0 1 5\x80\n")
	f.Add("graph directed 3\ne\x80 0 1 5\n")
	f.Add("graph directed 3\n\xc2 e 0 1 5\n\xc2\xa0e 1 2 3\n")
	f.Add("graph directed +7\ne +0 +6 +7\nv +6 +7\ne -0 +5 -0\n")
	f.Add("graph directed 0007\ne 0006 00 0000000000000000000007\nv 000000000000000000001 -0000000000000000002\n")
	f.Add("graph directed 4\ne 1 2 999999999999999999\ne 2 3 1000000000000000000\ne 3 1 2305843009213693950\n")
	f.Add("graph directed 4\ne 1 2 10000000000000000000\n")
	f.Add("graph directed 4\ne 1 2 -9223372036854775808\n")
	f.Add("graph directed 4\ne 0000000000000000001 0000000000000000002 3\n")
	f.Add("graph directed 4\nv 1 2147483647\nv 2 -2147483648\nv 3 0002147483648\n")
	// A refused edge before a later error: the first in file order wins.
	f.Add("graph directed 4\ne 0 1 1\ne 0 1 2\ne 1 2 x\n")
	f.Add("graph undirected 4\ne 0 1 1\ne 1 0 1\ne 2 2 1\n")
	f.Add("graph undirected 4\ne 2 2 1\ne 0 1 1\ne 1 0 1\n")
	f.Add("graph directed 4\ne 0 1 1\ne 0 1 1\ngraph directed 4\n")
	f.Add("graph directed 4\ne 0 1 1\ne 0 1 1\nv 9 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		// Large node counts allocate proportionally; clamp what the fuzzer
		// may request by inspecting header lines up front.
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[0] == "graph" && len(fields[2]) > 6 {
				return
			}
		}
		ref, refErr := readSscanf(strings.NewReader(in))
		// The chunked parse at every chunk count up to four, each held to
		// the reference and all to one another: the same graph, or the same
		// error text, line included.
		g, err := readText([]byte(in), nil, 1)
		for parts := 1; parts <= 4; parts++ {
			h, herr := readText([]byte(in), nil, parts)
			switch {
			case fmt.Sprint(herr) != fmt.Sprint(err) || herr == nil && !sameGraph(g, h):
				t.Fatalf("%d chunks read %q as %v; one chunk as %v", parts, in, herr, err)
			case herr == nil && (refErr != nil || !sameGraph(h, ref)):
				t.Fatalf("Read accepted %q; the reference gives %v", in, refErr)
			case herr != nil && errLine("graph", herr) != errLine("graph", refErr):
				// Refusing a line the reference read on past is right only
				// for glued garbage.
				if at := errLine("graph", refErr); (at != 0 && at < errLine("graph", herr)) || !gluedLast(in, errLine("graph", herr)) {
					t.Fatalf("Read refused %q with %q; the reference gives %v", in, herr, refErr)
				}
			}
		}
		if r, rerr := Read(strings.NewReader(in)); fmt.Sprint(rerr) != fmt.Sprint(err) || rerr == nil && !sameGraph(g, r) {
			t.Fatalf("Read gives %v for %q; the chunked parse %v", rerr, in, err)
		}
		if err != nil {
			return
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("accepted graph inconsistent: %v", err)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("serialized graph failed to parse: %v", err)
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() || h.Directed() != g.Directed() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// readBatchSscanf is ReadBatch as it was before it stopped going through
// strings.Fields and fmt.Sscanf, kept as the reference FuzzReadBatch
// compares the parser against. Like ReadBatch it scans node ids at
// NodeID's width, so an id past 2³¹ − 1 is an error, not another node.
func readBatchSscanf(r io.Reader) (Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b Batch
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var upd Update
		switch {
		case fields[0] == "+" && len(fields) == 4:
			var u, v int32
			var w int64
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("batch: line %d: %v", line, err)
			}
			upd = Update{Kind: InsertEdge, From: NodeID(u), To: NodeID(v), W: w}
		case fields[0] == "-" && (len(fields) == 3 || len(fields) == 4):
			var u, v int32
			var w int64
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("batch: line %d: %v", line, err)
			}
			if len(fields) == 4 {
				if _, err := fmt.Sscanf(fields[3], "%d", &w); err != nil {
					return nil, fmt.Errorf("batch: line %d: %v", line, err)
				}
			}
			upd = Update{Kind: DeleteEdge, From: NodeID(u), To: NodeID(v), W: w}
		default:
			return nil, fmt.Errorf("batch: line %d: malformed update %q", line, text)
		}
		if err := upd.Validate(-1); err != nil {
			return nil, fmt.Errorf("batch: line %d: %v", line, err)
		}
		b = append(b, upd)
	}
	return b, sc.Err()
}

// errLine extracts the line number of a "<format>: line N:" error of Read
// ("graph") or ReadBatch ("batch"), 0 if it carries none.
func errLine(format string, err error) (line int) {
	if err != nil {
		fmt.Sscanf(err.Error(), format+": line %d:", &line)
	}
	return line
}

// gluedGarbage reports whether the given 1-based line of in holds a
// number Sscanf read a prefix of: a field after the first that is not a
// plain decimal. That is the one input the reference accepts and
// ReadBatch refuses.
func gluedGarbage(in string, line int) bool {
	lines := strings.Split(in, "\n")
	if line < 1 || line > len(lines) {
		return false
	}
	fields := strings.Fields(lines[line-1])
	for _, f := range fields[min(1, len(fields)):] {
		if _, err := strconv.ParseInt(f, 10, 64); err != nil {
			return true
		}
	}
	return false
}

// FuzzReadBatch exercises the batch parser differentially and by round
// trip: it accepts what the Sscanf-based reference accepts, with the same
// result and the same line in its errors — except a number with garbage
// glued to it, which the reference read the prefix of and ReadBatch
// refuses — and anything accepted re-serializes and re-parses.
func FuzzReadBatch(f *testing.F) {
	f.Add("+ 1 2 3\n- 4 5\n")
	f.Add("# nothing\n")
	f.Add("+ -1 -2 -3")
	// Boundary weights: the largest legal one, Infinity, and MaxInt64.
	f.Add("+ 1 2 2305843009213693950\n")
	f.Add("+ 1 2 2305843009213693951\n")
	f.Add("- 1 2 9223372036854775807\n")
	// Where the two parsers could part: signs, underscores, other bases,
	// overflow, glued garbage in every position, Unicode white space,
	// carriage returns, a comment glued to an update.
	f.Add("+ +1 +2 +3\n- 1 2 -0\n")
	f.Add("+ 1_0 2 3\n")
	f.Add("+ 0x10 2 3\n+ 1 2 0x10\n")
	f.Add("+ 1 2 9223372036854775808\n")
	f.Add("+ 4294967296 1 2\n")
	f.Add("+ 1 2 3x\n")
	f.Add("+ 1x 2 3\n- 1 2x\n- 1 2x 3\n- 1 2 3x\n")
	f.Add("\u00a0+\u20031\u20282 3\u0085\n \t- 4 5 \r\n")
	f.Add("+ 1 2 3 # c\n+ 1 2 3#c\n#+ 1 2 3\n")
	f.Add("+ 1 2 \xff\n")
	// Torn-write corpora: a valid multi-line batch cut mid-line at every
	// offset, the shape a crash leaves behind in a text batch file.
	whole := "+ 1 2 3\n- 4 5 6\n+ 100 200 -7\n- 8 9\n"
	for cut := 0; cut < len(whole); cut++ {
		f.Add(whole[:cut])
	}
	// Ids one past NodeID's range and one past uint32's: refused, where a
	// 64-bit parse narrowed them to nodes −2³¹, 0 and 5.
	f.Add("+ 2147483648 1 7\n")
	f.Add("+ 4294967296 4294967301 7\n")
	// The tokenizer and digit loop Read shares: CRLF, U+00A0 and U+0085
	// between fields, a stray byte at or past 0x80, explicit signs, leading
	// zeros, and numbers of 18, 19 and 20 digits.
	f.Add("+ 1 2 3\r\n- 4 5\r\n")
	f.Add("+ 1\u00852 3\n\u0085- 4 5 \n")
	f.Add("+ 1 2 3\x80\n")
	f.Add("+\x80 1 2 3\n\xc2 - 4 5\n")
	f.Add("+ +7 +8 +9\n- +7 +8 -0\n")
	f.Add("+ 007 0008 0000000000000000009\n- 0000000000000000001 2\n")
	f.Add("+ 1 2 999999999999999999\n+ 2 3 1000000000000000000\n")
	f.Add("+ 1 2 10000000000000000000\n")
	f.Add("+ 2147483647 0002147483647 1\n+ 1 -2147483648 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		b, err := ReadBatch(strings.NewReader(in))
		ref, refErr := readBatchSscanf(strings.NewReader(in))
		switch {
		case err == nil && (refErr != nil || !slices.Equal(b, ref)):
			t.Fatalf("ReadBatch accepted %q as %v; the reference gives %v, %v", in, b, ref, refErr)
		case err != nil && errLine("batch", err) != errLine("batch", refErr):
			// Refusing a line the reference read on past is right only for
			// glued garbage.
			if at := errLine("batch", refErr); (at != 0 && at < errLine("batch", err)) || !gluedGarbage(in, errLine("batch", err)) {
				t.Fatalf("ReadBatch refused %q with %q; the reference gives %v, %v", in, err, ref, refErr)
			}
		}
		if err != nil {
			return
		}
		// Every id of an accepted update is the decimal on its line.
		k := 0
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0][0] == '#' {
				continue
			}
			for j, id := range []NodeID{b[k].From, b[k].To} {
				if n, err := strconv.ParseInt(fields[1+j], 10, 64); err != nil || n != int64(id) {
					t.Fatalf("ReadBatch read %q of %q as node %d", fields[1+j], line, id)
				}
			}
			k++
		}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, b); err != nil {
			t.Fatalf("accepted batch failed to serialize: %v", err)
		}
		b2, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("serialized batch failed to parse: %v", err)
		}
		if len(b2) != len(b) {
			t.Fatal("round trip changed the batch length")
		}
	})
}

// readBinaryStream is ReadBinary as it was while it decoded varint by
// varint through a bufio.Reader and inserted every edge with InsertEdge,
// kept as the reference FuzzReadBinary compares the decoder against.
func readBinaryStream(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph binary: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", magic)
	}
	dirByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading kind: %w", err)
	}
	if dirByte > 1 {
		return nil, fmt.Errorf("graph binary: bad kind byte %d", dirByte)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading node count: %w", err)
	}
	if n > maxBinaryNodes {
		return nil, fmt.Errorf("graph binary: node count %d too large", n)
	}
	g := New(int(n), dirByte == 1)
	readID := func(what string) (NodeID, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("graph binary: reading %s: %w", what, err)
		}
		if v >= n {
			return 0, fmt.Errorf("graph binary: %s %d out of range [0,%d)", what, v, n)
		}
		return NodeID(v), nil
	}
	labeled, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading label count: %w", err)
	}
	if labeled > n {
		return nil, fmt.Errorf("graph binary: label count %d exceeds nodes %d", labeled, n)
	}
	for i := uint64(0); i < labeled; i++ {
		v, err := readID("label id")
		if err != nil {
			return nil, err
		}
		l, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph binary: reading label: %w", err)
		}
		g.SetLabel(v, Label(l))
	}
	dead, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading tombstone count: %w", err)
	}
	if dead != 0 {
		return nil, fmt.Errorf("%w: %d", ErrTombstones, dead)
	}
	edges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading edge count: %w", err)
	}
	for i := uint64(0); i < edges; i++ {
		u, err := readID("edge tail")
		if err != nil {
			return nil, err
		}
		v, err := readID("edge head")
		if err != nil {
			return nil, err
		}
		w, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph binary: reading edge weight: %w", err)
		}
		if err := checkWeight(w); err != nil {
			return nil, fmt.Errorf("graph binary: edge (%d,%d): %w", u, v, err)
		}
		if !g.InsertEdge(u, v, w) {
			return nil, fmt.Errorf("graph binary: duplicate or degenerate edge (%d,%d)", u, v)
		}
	}
	return g, nil
}

// blobOf encodes a binary graph field by field, whether or not the fields
// make a graph: the blobs WriteBinary cannot write (a repeated edge, a
// self-loop, an id past the node count, a tombstone, which both decoders
// refuse).
func blobOf(directed bool, n uint64, labels [][2]int64, tombs []uint64, edges [][3]int64) []byte {
	b := []byte(binaryMagic)
	if directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, uint64(len(labels)))
	for _, l := range labels {
		b = binary.AppendUvarint(b, uint64(l[0]))
		b = binary.AppendVarint(b, l[1])
	}
	b = binary.AppendUvarint(b, uint64(len(tombs)))
	for _, v := range tombs {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e[0]))
		b = binary.AppendUvarint(b, uint64(e[1]))
		b = binary.AppendVarint(b, e[2])
	}
	return b
}

// FuzzReadBinary holds the in-memory decoder and its one-pass row build
// to the per-edge decoder it replaced: the same graph, row for row, labels
// included, or the same error, word for word — a tombstone count other
// than 0 is refused by both.
func FuzzReadBinary(f *testing.F) {
	for _, directed := range []bool{false, true} {
		var buf bytes.Buffer
		if err := buildBinaryFixture(directed).WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		whole := buf.Bytes()
		f.Add(whole)
		for cut := 0; cut < len(whole); cut++ {
			f.Add(append([]byte(nil), whole[:cut]...))
		}
		labels := [][2]int64{{1, 7}, {3, -2}, {1, 9}}
		f.Add(blobOf(directed, 4, labels, []uint64{3}, [][3]int64{{0, 1, 5}, {1, 2, 3}}))
		// Repeats, either orientation, self-loops, and each before or
		// after another refusal, so the first in blob order must win.
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 5}, {1, 2, 3}, {0, 1, 7}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{1, 2, 3}, {2, 1, 3}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 1}, {2, 2, 1}, {0, 1, 1}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 1}, {0, 1, 1}, {2, 2, 1}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 1}, {0, 1, 1}, {0, 9, 1}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 1}, {0, 1, -1}}))
		f.Add(blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, Infinity}, {0, 1, 1}}))
		f.Add(blobOf(directed, 4, [][2]int64{{4, 1}}, nil, nil))
		f.Add(blobOf(directed, 4, nil, []uint64{1}, [][3]int64{{0, 1, 1}}))
		f.Add(blobOf(directed, 4, nil, []uint64{1, 1}, [][3]int64{{0, 2, 1}}))
		// A repeat, then a blob cut off: the repeat came first.
		dup := blobOf(directed, 4, nil, nil, [][3]int64{{0, 1, 1}, {0, 1, 2}, {2, 3, 1}})
		f.Add(dup[:len(dup)-2])
	}
	// Counts past the blob, and varints of ten and eleven continuation bytes.
	f.Add(binary.AppendUvarint([]byte(binaryMagic+"\x00\x04\x00\x00"), 1<<40))
	f.Add([]byte(binaryMagic + "\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Add([]byte(binaryMagic + "\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Add([]byte(binaryMagic + "\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02"))
	f.Add([]byte("IGB2\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// Node counts allocate proportionally: keep what the fuzzer asks for small.
		if len(data) > len(binaryMagic)+1 {
			if n, k := binary.Uvarint(data[len(binaryMagic)+1:]); k > 0 && n > 1<<16 {
				return
			}
		}
		g, err := ReadBinary(bytes.NewReader(data))
		ref, refErr := readBinaryStream(bytes.NewReader(data))
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("ReadBinary gives %v; the reference gives %v", err, refErr)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("ReadBinary refused with %q; the reference with %q", err, refErr)
		case err != nil:
			return
		}
		if !sameGraph(g, ref) {
			t.Fatal("ReadBinary and the reference built different graphs")
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("accepted graph inconsistent: %v", err)
		}
	})
}

// FuzzDecodeBatchBinary exercises the binary batch decoder used by the
// WAL frame payloads: arbitrary bytes must never panic, every accepted
// weight must be one checkWeight accepts, and an accepted batch must
// re-encode to a decodable equal batch.
func FuzzDecodeBatchBinary(f *testing.F) {
	seed := AppendBatchBinary(nil, Batch{
		{Kind: InsertEdge, From: 1, To: 2, W: 3},
		{Kind: DeleteEdge, From: 4, To: 5, W: 6},
	})
	f.Add(seed)
	for _, w := range []int64{-1, Infinity, math.MaxInt64} {
		f.Add(AppendBatchBinary(nil, Batch{{Kind: InsertEdge, From: 1, To: 2, W: w}}))
	}
	for cut := 0; cut < len(seed); cut++ {
		f.Add(append([]byte(nil), seed[:cut]...))
	}
	for at := 0; at < len(seed); at++ {
		mut := append([]byte(nil), seed...)
		mut[at] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, rest, err := DecodeBatchBinary(data)
		if err != nil {
			return
		}
		_ = rest
		for i, u := range b {
			if u.W < 0 || u.W >= Infinity {
				t.Fatalf("update %d accepted with weight %d outside [0, Infinity)", i, u.W)
			}
		}
		enc := AppendBatchBinary(nil, b)
		b2, rest2, err := DecodeBatchBinary(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest2))
		}
		if len(b2) != len(b) {
			t.Fatal("round trip changed the batch length")
		}
		for i := range b {
			if b[i] != b2[i] {
				t.Fatalf("update %d changed: %+v vs %+v", i, b[i], b2[i])
			}
		}
	})
}
