package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// Binary codecs for graphs and batches. The text format (io.go) is the
// human-facing interchange format; the binary format is the durability
// format: it is what checkpoints and the write-ahead log store, so it
// must round-trip everything a graph holds. Varint-encoded throughout; a
// power-law graph serializes to roughly 3 bytes per edge.

// binaryMagic heads a binary graph blob. The trailing version digit is
// bumped on incompatible changes so recovery fails loudly on a format it
// does not understand instead of reconstructing a wrong graph.
const binaryMagic = "IGB1"

// ErrTombstones refuses a blob that lists deleted nodes: the format still
// carries their count, but a graph has no deleted nodes since node
// deletion went, so a writer only ever puts 0 there.
var ErrTombstones = errors.New("graph binary: tombstoned nodes are not supported")

// maxBinaryNodes bounds the node count accepted by ReadBinary, so a
// corrupted header cannot make recovery attempt a multi-terabyte
// allocation before the CRC check has a chance to run.
const maxBinaryNodes = 1 << 31

// WriteBinary serializes the graph in the binary durability format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	if g.Directed() {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], x)])
	}
	putVarint := func(x int64) {
		bw.Write(buf[:binary.PutVarint(buf[:], x)])
	}
	putUvarint(uint64(g.NumNodes()))
	// Labels: sparse (id, label) pairs — most nodes carry label 0.
	labeled := 0
	for _, l := range g.labels {
		if l != 0 {
			labeled++
		}
	}
	putUvarint(uint64(labeled))
	for v, l := range g.labels {
		if l != 0 {
			putUvarint(uint64(v))
			putVarint(int64(l))
		}
	}
	// The tombstone count, from when nodes could be deleted: always 0.
	putUvarint(0)
	putUvarint(uint64(g.NumEdges()))
	g.Edges(func(u, v NodeID, wgt int64) {
		putUvarint(uint64(u))
		putUvarint(uint64(v))
		putVarint(wgt)
	})
	// bufio's error is sticky: the final Flush reports the first write
	// failure from anywhere above.
	return bw.Flush()
}

// ReadBinary parses a graph in the binary durability format, validating
// every id against the declared node count and every weight against
// checkWeight, so corrupted or hostile input (a checkpoint fetched from a
// primary) yields an error, never a panic, an inconsistent graph or a
// weight a relaxation would overflow on. It reads r whole and decodes the
// bytes in memory; the sorted rows are laid out from the decoded edges
// in the arrays the graph keeps (Graph.build) — the graph inserting them
// in turn would hold — and the first error in blob order is the one
// reported, a repeated edge or self-loop included.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph binary: %w", err)
	}
	if len(data) < len(binaryMagic) {
		err := io.ErrUnexpectedEOF
		if len(data) == 0 {
			err = io.EOF
		}
		return nil, fmt.Errorf("graph binary: reading magic: %w", err)
	}
	if magic := data[:len(binaryMagic)]; string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", magic)
	}
	data = data[len(binaryMagic):]
	if len(data) == 0 {
		return nil, fmt.Errorf("graph binary: reading kind: %w", io.EOF)
	}
	dirByte := data[0]
	if dirByte > 1 {
		return nil, fmt.Errorf("graph binary: bad kind byte %d", dirByte)
	}
	d := blob{buf: data[1:]}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading node count: %w", err)
	}
	if n > maxBinaryNodes {
		return nil, fmt.Errorf("graph binary: node count %d too large", n)
	}
	d.nodes = n
	g := blank(int(n), dirByte == 1)
	labeled, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading label count: %w", err)
	}
	if labeled > n {
		return nil, fmt.Errorf("graph binary: label count %d exceeds nodes %d", labeled, n)
	}
	for i := uint64(0); i < labeled; i++ {
		v, err := d.id("label id")
		if err != nil {
			return nil, err
		}
		l, err := d.varint()
		if err != nil {
			return nil, fmt.Errorf("graph binary: reading label: %w", err)
		}
		g.SetLabel(v, Label(l))
	}
	dead, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading tombstone count: %w", err)
	}
	if dead != 0 {
		return nil, fmt.Errorf("%w: %d", ErrTombstones, dead)
	}
	count, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph binary: reading edge count: %w", err)
	}
	// An edge takes at least three bytes, so a corrupted count cannot size
	// the list past what the blob holds.
	edges := make([]rawEdge, 0, min(count, uint64(len(d.buf)/3)))
	// fail returns err unless an edge decoded before it is one InsertEdge
	// would have refused: then that edge's error, which came first.
	fail := func(err error) error {
		if i := g.build([][]rawEdge{edges}); i >= 0 {
			return fmt.Errorf("graph binary: duplicate or degenerate edge (%d,%d)", edges[i].u, edges[i].v)
		}
		return err
	}
	for i := uint64(0); i < count; i++ {
		u, err := d.id("edge tail")
		if err != nil {
			return nil, fail(err)
		}
		v, err := d.id("edge head")
		if err != nil {
			return nil, fail(err)
		}
		w, err := d.varint()
		if err != nil {
			return nil, fail(fmt.Errorf("graph binary: reading edge weight: %w", err))
		}
		if err := checkWeight(w); err != nil {
			return nil, fail(fmt.Errorf("graph binary: edge (%d,%d): %w", u, v, err))
		}
		if u == v {
			return nil, fail(fmt.Errorf("graph binary: duplicate or degenerate edge (%d,%d)", u, v))
		}
		edges = append(edges, rawEdge{u, v, w})
	}
	// Every edge is decoded: build the rows, unless one of them is refused.
	if err := fail(nil); err != nil {
		return nil, err
	}
	return g, nil
}

// readAll reads r to its end, into one buffer sized up front when r
// knows how much it holds: a checkpoint's blob in a bytes.Reader, or a
// file, by Stat. io.ReadAll grows its buffer a quarter at a time, a third
// more bytes and 25 more allocations for a blob of the durable workload's
// size. What was read before an error is returned with it.
func readAll(r io.Reader) ([]byte, error) {
	size := -1
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// One byte more than the size: the read that meets the end needs room.
	data := make([]byte, 0, size+1)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		} else if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			// The file grew since its Stat: let append size the rest.
			data = append(data, 0)[:len(data)]
		}
	}
}

// errVarintOverflow is the error encoding/binary's ReadUvarint gives for a
// varint past 64 bits; the blob decoder keeps its text.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// blob decodes varints from a graph blob in memory. Its errors are the
// ones binary.ReadUvarint gives reading the same bytes from a stream, so
// a refusal reads the same whatever the blob came from.
type blob struct {
	buf   []byte
	nodes uint64 // the declared node count, which every id must be below
}

func (d *blob) uvarint() (uint64, error) {
	x, k := binary.Uvarint(d.buf)
	if k <= 0 {
		return 0, d.uvarintErr(k)
	}
	d.buf = d.buf[k:]
	return x, nil
}

// uvarintErr is the error of a varint binary.Uvarint refused with k ≤ 0.
func (d *blob) uvarintErr(k int) error {
	switch {
	case k < 0 || len(d.buf) >= binary.MaxVarintLen64:
		return errVarintOverflow
	case len(d.buf) == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

func (d *blob) varint() (int64, error) {
	x, k := binary.Varint(d.buf)
	if k <= 0 {
		return 0, d.uvarintErr(k)
	}
	d.buf = d.buf[k:]
	return x, nil
}

// id decodes a node id; what names it in an error.
func (d *blob) id(what string) (NodeID, error) {
	v, k := binary.Uvarint(d.buf)
	if k <= 0 || v >= d.nodes {
		return 0, d.idErr(what, v, k)
	}
	d.buf = d.buf[k:]
	return NodeID(v), nil
}

func (d *blob) idErr(what string, v uint64, k int) error {
	if k <= 0 {
		return fmt.Errorf("graph binary: reading %s: %w", what, d.uvarintErr(k))
	}
	return fmt.Errorf("graph binary: %s %d out of range [0,%d)", what, v, d.nodes)
}

// AppendBatchBinary appends the binary encoding of b to dst and returns
// the result — the batch payload format of the write-ahead log.
func AppendBatchBinary(dst []byte, b Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	for _, u := range b {
		dst = append(dst, byte(u.Kind))
		dst = binary.AppendUvarint(dst, uint64(uint32(u.From)))
		dst = binary.AppendUvarint(dst, uint64(uint32(u.To)))
		dst = binary.AppendVarint(dst, u.W)
	}
	return dst
}

// DecodeBatchBinary parses a batch encoded by AppendBatchBinary from the
// front of data, returning the batch and the unconsumed tail. Corrupted
// input yields an error, never a panic. Every weight, a deletion's too,
// must pass checkWeight, as Update.Validate requires of every batch the
// log is written from: a deletion's weight is replaced by the removed
// edge's when applied, but out of range it can only be corruption.
func DecodeBatchBinary(data []byte) (Batch, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("batch binary: bad count")
	}
	data = data[n:]
	// Each update costs at least 4 bytes; reject counts the data cannot
	// hold so corruption cannot force a huge allocation.
	if count > uint64(len(data)/4+1) {
		return nil, nil, fmt.Errorf("batch binary: count %d exceeds payload", count)
	}
	b := make(Batch, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("batch binary: truncated at update %d", i)
		}
		kind := UpdateKind(data[0])
		if kind != InsertEdge && kind != DeleteEdge {
			return nil, nil, fmt.Errorf("batch binary: bad kind %d at update %d", kind, i)
		}
		data = data[1:]
		from, n := binary.Uvarint(data)
		if n <= 0 || from > uint64(^uint32(0)) {
			return nil, nil, fmt.Errorf("batch binary: bad from at update %d", i)
		}
		data = data[n:]
		to, n := binary.Uvarint(data)
		if n <= 0 || to > uint64(^uint32(0)) {
			return nil, nil, fmt.Errorf("batch binary: bad to at update %d", i)
		}
		data = data[n:]
		w, n := binary.Varint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("batch binary: bad weight at update %d", i)
		}
		if err := checkWeight(w); err != nil {
			return nil, nil, fmt.Errorf("batch binary: update %d: %w", i, err)
		}
		data = data[n:]
		b = append(b, Update{Kind: kind, From: NodeID(int32(uint32(from))), To: NodeID(int32(uint32(to))), W: w})
	}
	return b, data, nil
}
