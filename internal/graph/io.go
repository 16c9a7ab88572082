package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
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
// every graph.

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

// Read parses a graph in the text format. Like ReadBatch it works on
// bytes — it is the cold start of every daemon — and takes numbers as
// plain decimals: a field with anything glued to the number is an error
// wherever it stands, and a node count or label that does not fit its
// type is refused instead of narrowed.
//
// It reads r whole into one buffer (sized up front for a file or a
// bytes.Reader), parses the header, and cuts the lines after it into
// GOMAXPROCS chunks of whole lines that are parsed side by side. The rows
// are built from the chunks' edge lists in file order (Graph.build),
// exactly as inserting the edges line by line would, and the labels set
// in file order. Errors, their texts and their line numbers are those of
// a line-by-line read: the first error in file order is the one
// reported, a repeated edge or self-loop included.
func Read(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	return readText(data, err, runtime.GOMAXPROCS(0))
}

// maxLine is the length of the shortest line Read refuses, with
// bufio.ErrTooLong: ReadBatch's scanner's limit, so that the two text
// formats take the same lines.
const maxLine = 1 << 24

// readText is Read of data, which reading ended with readErr, in at most
// parts chunks.
func readText(data []byte, readErr error, parts int) (*Graph, error) {
	g, rest, line, err := readHeader(data)
	switch {
	case err != nil:
		return nil, err
	case g == nil && readErr != nil:
		return nil, readErr
	case g == nil:
		return nil, fmt.Errorf("graph: missing header")
	}
	chunks := splitLines(rest, parts, line)
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func(c *textChunk) {
			defer wg.Done()
			c.parse(g)
		}(&chunks[i])
	}
	wg.Wait()
	// The first error in file order, and the edges read before it: a
	// refused edge among those comes first.
	lists := make([][]rawEdge, 0, len(chunks))
	for i := range chunks {
		lists = append(lists, chunks[i].edges)
		if err = chunks[i].err; err != nil {
			break
		}
	}
	if err == nil {
		err = readErr
	}
	if i := g.build(lists); i >= 0 {
		for c := range lists {
			if i < len(lists[c]) {
				e := lists[c][i]
				return nil, fmt.Errorf("graph: line %d: duplicate or degenerate edge (%d,%d)", chunks[c].edgeLine(i), e.u, e.v)
			}
			i -= len(lists[c])
		}
	}
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		for _, l := range c.labels {
			g.SetLabel(l.v, l.label)
		}
	}
	return g, nil
}

// cutLine returns the first line of text, without its newline, and the
// lines after it.
func cutLine(text []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(text, []byte{'\n'})
	return line, rest
}

// readHeader parses the lines of text up to and including the header and
// returns the graph it declares, the lines after it and the number of the
// first of those; no graph and no error when text holds no record.
func readHeader(text []byte) (g *Graph, rest []byte, line int, err error) {
	for line = 1; len(text) > 0; line++ {
		var s []byte
		if s, text = cutLine(text); len(s) >= maxLine {
			return nil, nil, 0, bufio.ErrTooLong
		}
		var fields [4][]byte
		n := splitFields(s, &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "graph":
		case "v", "e":
			return nil, nil, 0, fmt.Errorf("graph: line %d: %s before header", line, fields[0])
		default:
			return nil, nil, 0, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
		if n != 3 {
			return nil, nil, 0, fmt.Errorf("graph: line %d: malformed header", line)
		}
		nodes, err := parseInt(fields[2], 32)
		if err != nil || nodes < 0 {
			return nil, nil, 0, fmt.Errorf("graph: line %d: bad node count %q", line, fields[2])
		}
		switch string(fields[1]) {
		case "directed":
			return New(int(nodes), true), text, line + 1, nil
		case "undirected":
			return New(int(nodes), false), text, line + 1, nil
		}
		return nil, nil, 0, fmt.Errorf("graph: line %d: bad kind %q", line, fields[1])
	}
	return nil, nil, 0, nil
}

// textChunk is a run of whole lines of a text graph after its header, and
// what parsing it found: its edges and labels in file order, up to its
// first error.
type textChunk struct {
	text   []byte
	line   int // the number of its first line
	edges  []rawEdge
	labels []rawLabel
	err    error
}

// rawLabel is one v record as the reader decoded it.
type rawLabel struct {
	v     NodeID
	label Label
}

// splitLines cuts text, whose first line is numbered line, into at most
// parts chunks of whole lines, of about equal size.
func splitLines(text []byte, parts, line int) []textChunk {
	chunks := make([]textChunk, 0, parts)
	for len(text) > 0 {
		end := len(text)
		if left := parts - len(chunks); left > 1 {
			end /= left
			if i := bytes.IndexByte(text[end:], '\n'); i >= 0 {
				end += i + 1
			} else {
				end = len(text)
			}
		}
		// Every line is at most one record, so its lines size the edge
		// list once.
		lines := bytes.Count(text[:end], []byte{'\n'})
		chunks = append(chunks, textChunk{text: text[:end], line: line, edges: make([]rawEdge, 0, lines+1)})
		text, line = text[end:], line+lines
	}
	return chunks
}

// parse parses c's lines as records of g, whose header came before them,
// up to the first error. It reads g and writes only c.
func (c *textChunk) parse(g *Graph) {
	text := c.text
	for line := c.line; len(text) > 0; line++ {
		var s []byte
		if s, text = cutLine(text); len(s) >= maxLine {
			c.err = bufio.ErrTooLong
			return
		}
		var fields [4][]byte
		n := splitFields(s, &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		if c.err = c.record(g, &fields, n, line); c.err != nil {
			return
		}
	}
}

// record parses one record of n fields at line.
func (c *textChunk) record(g *Graph, fields *[4][]byte, n, line int) error {
	switch string(fields[0]) {
	case "graph":
		return fmt.Errorf("graph: line %d: duplicate header", line)
	case "v":
		if n != 3 {
			return fmt.Errorf("graph: line %d: malformed v line", line)
		}
		id, err := parseInt(fields[1], 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		label, err := parseInt(fields[2], 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", line, err)
		}
		if id < 0 || id >= int64(g.NumNodes()) {
			return fmt.Errorf("graph: line %d: node %d out of range", line, id)
		}
		c.labels = append(c.labels, rawLabel{NodeID(id), Label(label)})
	case "e":
		if n != 4 {
			return fmt.Errorf("graph: line %d: malformed e line", line)
		}
		var nums [3]int64 // u, v, w
		for k := range nums {
			var err error
			if nums[k], err = parseInt(fields[k+1], 64); err != nil {
				return fmt.Errorf("graph: line %d: %v", line, err)
			}
		}
		u, v, wgt := nums[0], nums[1], nums[2]
		if u < 0 || u >= int64(g.NumNodes()) || v < 0 || v >= int64(g.NumNodes()) {
			return fmt.Errorf("graph: line %d: edge (%d,%d) out of range", line, u, v)
		}
		if err := checkWeight(wgt); err != nil {
			return fmt.Errorf("graph: line %d: edge (%d,%d): %v", line, u, v, err)
		}
		if u == v {
			return fmt.Errorf("graph: line %d: duplicate or degenerate edge (%d,%d)", line, u, v)
		}
		c.edges = append(c.edges, rawEdge{NodeID(u), NodeID(v), wgt})
	default:
		return fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
	}
	return nil
}

// edgeLine returns the line of c's k-th edge: its k-th e record, as every
// e record before c's error added one edge. Only an error needs it, so no
// edge carries its line.
func (c *textChunk) edgeLine(k int) int {
	text := c.text
	for line := c.line; ; line++ {
		var s []byte
		s, text = cutLine(text)
		var fields [4][]byte
		if splitFields(s, &fields) > 0 && string(fields[0]) == "e" {
			if k == 0 {
				return line
			}
			k--
		}
	}
}
