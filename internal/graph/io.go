package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The text format is a labeled edge list, line-oriented and diff-friendly:
//
//	graph <directed|undirected> <numNodes>
//	v <id> <label>            # only nodes with non-zero labels
//	e <from> <to> <weight>
//
// Lines starting with '#' and blank lines are ignored. It round-trips
// everything except node tombstones (deleted node ids are compacted away
// by the writer only if they are trailing).

// WriteTo serializes the graph. It returns the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	if err := count(fmt.Fprintf(bw, "graph %s %d\n", kind, g.NumNodes())); err != nil {
		return n, err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if l := g.Label(NodeID(v)); l != 0 {
			if err := count(fmt.Fprintf(bw, "v %d %d\n", v, l)); err != nil {
				return n, err
			}
		}
	}
	var werr error
	g.Edges(func(u, v NodeID, wgt int64) {
		if werr == nil {
			werr = count(fmt.Fprintf(bw, "e %d %d %d\n", u, v, wgt))
		}
	})
	if werr != nil {
		return n, werr
	}
	return n, bw.Flush()
}

// WriteBatch serializes a batch of updates, one per line: "+ u v w" for
// insertions, "- u v" (or "- u v w" when the deletion records the removed
// weight, as the batches returned by Graph.Apply do) for deletions.
// Comments and blank lines are allowed when reading back; the format
// round-trips exactly through ReadBatch.
func WriteBatch(w io.Writer, b Batch) error {
	bw := bufio.NewWriter(w)
	for _, u := range b {
		var err error
		switch u.Kind {
		case InsertEdge:
			_, err = fmt.Fprintf(bw, "+ %d %d %d\n", u.From, u.To, u.W)
		case DeleteEdge:
			if u.W != 0 {
				_, err = fmt.Fprintf(bw, "- %d %d %d\n", u.From, u.To, u.W)
			} else {
				_, err = fmt.Fprintf(bw, "- %d %d\n", u.From, u.To)
			}
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBatch parses a batch in the WriteBatch format. Each update is
// validated as it is parsed (non-negative node ids, weights in
// [0, Infinity), see Update.Validate), so a malformed update file fails
// with a line-numbered error here instead of panicking deep inside a
// maintainer. Upper node-id bounds depend on the target graph and are
// checked by Batch.Validate.
//
// It is on the path of every POST /update, so it works on the scanner's
// bytes: no per-line strings, and a buffer that starts small and grows
// only for a long line.
func ReadBatch(r io.Reader) (Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var b Batch
	for line := 1; sc.Scan(); line++ {
		var fields [4][]byte
		n := splitFields(sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		upd := Update{Kind: InsertEdge}
		switch op := fields[0]; {
		case string(op) == "+" && n == 4:
		case string(op) == "-" && (n == 3 || n == 4):
			upd.Kind = DeleteEdge
		default:
			return nil, fmt.Errorf("batch: line %d: malformed update %q", line, bytes.TrimSpace(sc.Bytes()))
		}
		var nums [3]int64 // u, v and, where given, w
		for k := range nums[:n-1] {
			// A node id must fit NodeID: parsed any wider, 2³² + 5 would be
			// narrowed to node 5 below and the line accepted.
			bits := 32
			if k == 2 {
				bits = 64
			}
			var err error
			if nums[k], err = parseInt(fields[k+1], bits); err != nil {
				return nil, fmt.Errorf("batch: line %d: %v", line, err)
			}
		}
		upd.From, upd.To, upd.W = NodeID(nums[0]), NodeID(nums[1]), nums[2]
		if err := upd.Validate(-1); err != nil {
			return nil, fmt.Errorf("batch: line %d: %v", line, err)
		}
		b = append(b, upd)
	}
	return b, sc.Err()
}

// splitFields stores the first four fields of s — runs of bytes holding no
// Unicode white space, as strings.Fields splits — and returns how many s
// holds in all: no record of either text format has more.
func splitFields(s []byte, fields *[4][]byte) (n int) {
	for i := 0; ; {
		for i < len(s) {
			c := byteClass[s[i]]
			if c == fieldByte {
				break
			}
			w := 1
			if c == runeByte {
				if w = spaceWidth(s[i:]); w == 0 {
					break
				}
			}
			i += w
		}
		if i == len(s) {
			return n
		}
		start := i
		// Byte by byte: the bytes inside a rune cannot start one, let alone
		// white space.
		for i < len(s) {
			c := byteClass[s[i]]
			if c == asciiSpace || (c == runeByte && spaceWidth(s[i:]) > 0) {
				break
			}
			i++
		}
		if n < len(fields) {
			fields[n] = s[start:i]
		}
		n++
	}
}

// The classes of byteClass.
const (
	fieldByte  = iota // no white space
	asciiSpace        // what unicode.IsSpace calls white space below utf8.RuneSelf
	runeByte          // at or past utf8.RuneSelf: only the rune it starts can tell
)

// byteClass sorts the bytes for splitFields, so an ASCII byte costs one
// lookup and only a byte at or past utf8.RuneSelf a rune to decode and
// ask unicode.IsSpace about.
var byteClass = func() (class [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		class[c] = asciiSpace
	}
	for c := utf8.RuneSelf; c < len(class); c++ {
		class[c] = runeByte
	}
	return class
}()

// spaceWidth returns the width of the white space rune s starts with, 0
// when it starts with none.
func spaceWidth(s []byte) int {
	if r, w := utf8.DecodeRune(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// parseInt is strconv.ParseInt(string(s), 10, bits) read straight from the
// bytes: a sign and up to 18 digits, which cannot overflow an int64, are
// summed here, and anything else (another byte, more digits, a value past
// bits) is left to strconv for its verdict and its error text.
func parseInt(s []byte, bits int) (int64, error) {
	digits := s
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(s), 10, bits)
	}
	var x int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(s), 10, bits)
		}
		x = x*10 + int64(c-'0')
	}
	if s[0] == '-' {
		x = -x
	}
	if bits == 32 && x != int64(int32(x)) {
		return strconv.ParseInt(string(s), 10, bits)
	}
	return x, nil
}

// Read parses a graph in the text format. Like ReadBatch it works on the
// scanner's bytes — it is the cold start of every daemon — and takes
// numbers as plain decimals: a field with anything glued to the number is
// an error wherever it stands, and a node count or label that does not fit
// its type is refused instead of narrowed. The edges are collected as they
// are read and the rows built from them at the end (Graph.build), exactly
// as inserting them line by line would; the first error in file order is
// the one reported, a repeated edge or self-loop included.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var g *Graph
	var edges []rawEdge
	var lines []int32 // the line of every edge
	// fail returns err unless an edge read before it is one InsertEdge
	// would have refused: then that edge's error, which came first.
	fail := func(err error) error {
		if g != nil {
			if i := g.build(edges); i >= 0 {
				return fmt.Errorf("graph: line %d: duplicate or degenerate edge (%d,%d)", lines[i], edges[i].u, edges[i].v)
			}
		}
		return err
	}
	for line := 1; sc.Scan(); line++ {
		var fields [4][]byte
		n := splitFields(sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "graph":
			if g != nil {
				return nil, fail(fmt.Errorf("graph: line %d: duplicate header", line))
			}
			if n != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header", line)
			}
			nodes, err := parseInt(fields[2], 32)
			if err != nil || nodes < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[2])
			}
			switch string(fields[1]) {
			case "directed":
				g = New(int(nodes), true)
			case "undirected":
				g = New(int(nodes), false)
			default:
				return nil, fmt.Errorf("graph: line %d: bad kind %q", line, fields[1])
			}
		case "v":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: v before header", line)
			}
			if n != 3 {
				return nil, fail(fmt.Errorf("graph: line %d: malformed v line", line))
			}
			id, err := parseInt(fields[1], 64)
			if err != nil {
				return nil, fail(fmt.Errorf("graph: line %d: %v", line, err))
			}
			label, err := parseInt(fields[2], 32)
			if err != nil {
				return nil, fail(fmt.Errorf("graph: line %d: %v", line, err))
			}
			if id < 0 || id >= int64(g.NumNodes()) {
				return nil, fail(fmt.Errorf("graph: line %d: node %d out of range", line, id))
			}
			g.SetLabel(NodeID(id), Label(label))
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: e before header", line)
			}
			if n != 4 {
				return nil, fail(fmt.Errorf("graph: line %d: malformed e line", line))
			}
			var nums [3]int64 // u, v, w
			for k := range nums {
				var err error
				if nums[k], err = parseInt(fields[k+1], 64); err != nil {
					return nil, fail(fmt.Errorf("graph: line %d: %v", line, err))
				}
			}
			u, v, wgt := nums[0], nums[1], nums[2]
			if u < 0 || u >= int64(g.NumNodes()) || v < 0 || v >= int64(g.NumNodes()) {
				return nil, fail(fmt.Errorf("graph: line %d: edge (%d,%d) out of range", line, u, v))
			}
			if err := checkWeight(wgt); err != nil {
				return nil, fail(fmt.Errorf("graph: line %d: edge (%d,%d): %v", line, u, v, err))
			}
			if len(edges) == cap(edges) {
				// Double: append grows a long slice by a quarter at a time,
				// copying it five times over on the way to its length.
				edges, lines = slices.Grow(edges, len(edges)), slices.Grow(lines, len(lines))
			}
			edges = append(edges, rawEdge{NodeID(u), NodeID(v), wgt})
			lines = append(lines, int32(line))
		default:
			return nil, fail(fmt.Errorf("graph: line %d: unknown record %q", line, fields[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fail(err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	// Every edge is read: build the rows, unless one of them is refused.
	if err := fail(nil); err != nil {
		return nil, err
	}
	return g, nil
}
