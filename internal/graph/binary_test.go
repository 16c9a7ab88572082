package graph

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// buildBinaryFixture makes a graph exercising every binary-format
// feature: labels, weighted edges — one weight past a varint's first
// byte — and a node without edges.
func buildBinaryFixture(directed bool) *Graph {
	g := New(6, directed)
	g.SetLabel(1, 7)
	g.SetLabel(4, -2)
	g.InsertEdge(0, 1, 64)
	g.InsertEdge(1, 2, 5)
	g.InsertEdge(2, 3, 1)
	g.InsertEdge(0, 3, 9)
	if directed {
		g.InsertEdge(3, 0, 2)
	}
	return g
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Directed() != b.Directed() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %v/%d/%d vs %v/%d/%d",
			a.Directed(), a.NumNodes(), a.NumEdges(), b.Directed(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.Label(NodeID(v)) != b.Label(NodeID(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
	a.Edges(func(u, v NodeID, w int64) {
		if !b.HasEdge(u, v) || b.Weight(u, v) != w {
			t.Fatalf("edge (%d,%d,%d) missing or reweighted", u, v, w)
		}
	})
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildBinaryFixture(directed)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
		graphsEqual(t, g, got)
		if err := got.CheckConsistent(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := buildBinaryFixture(true)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations at every prefix and single-byte corruptions must error
	// or produce a consistent graph — never panic.
	for i := 0; i < len(full); i++ {
		if g2, err := ReadBinary(bytes.NewReader(full[:i])); err == nil {
			if cerr := g2.CheckConsistent(); cerr != nil {
				t.Fatalf("truncation at %d: inconsistent graph: %v", i, cerr)
			}
		}
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		if g2, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			if cerr := g2.CheckConsistent(); cerr != nil {
				t.Fatalf("corruption at %d: inconsistent graph: %v", i, cerr)
			}
		}
	}
}

func TestBatchBinaryRoundTrip(t *testing.T) {
	b := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 5},
		{Kind: DeleteEdge, From: 3, To: 2, W: 0},
		{Kind: InsertEdge, From: 1000000, To: 2, W: 1 << 40},
		{Kind: DeleteEdge, From: 7, To: 9, W: 12},
	}
	data := AppendBatchBinary(nil, b)
	got, rest, err := DecodeBatchBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("unconsumed tail of %d bytes", len(rest))
	}
	if len(got) != len(b) {
		t.Fatalf("got %d updates, want %d", len(got), len(b))
	}
	for i := range b {
		if got[i] != b[i] {
			t.Fatalf("update %d: got %v want %v", i, got[i], b[i])
		}
	}
}

func TestBatchBinaryRejectsCorruption(t *testing.T) {
	b := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 5},
		{Kind: DeleteEdge, From: 3, To: 2},
	}
	data := AppendBatchBinary(nil, b)
	for i := 0; i <= len(data); i++ {
		DecodeBatchBinary(data[:i]) // must not panic
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		DecodeBatchBinary(mut) // must not panic
	}
}

// TestBinaryRejectsWeightsOutOfRange: the two decoders of what the log
// and checkpoints hold gate weights as Update.Validate does. A CRC-valid
// record or checkpoint carrying −1 (Dijkstra is wrong with it) or
// MaxInt64 (d + w wraps) used to decode and be applied.
func TestBinaryRejectsWeightsOutOfRange(t *testing.T) {
	for _, w := range []int64{-1, Infinity, math.MaxInt64} {
		g := New(3, true)
		g.InsertEdge(0, 1, 2)
		g.InsertEdge(1, 2, w) // InsertEdge takes what it is given
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&buf); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("ReadBinary with an edge of weight %d: err = %v, want a weight error", w, err)
		}
		for _, kind := range []UpdateKind{InsertEdge, DeleteEdge} {
			data := AppendBatchBinary(nil, Batch{{Kind: InsertEdge, From: 0, To: 1, W: 1}, {Kind: kind, From: 1, To: 2, W: w}})
			if _, _, err := DecodeBatchBinary(data); err == nil || !strings.Contains(err.Error(), "update 1") {
				t.Errorf("DecodeBatchBinary with a kind-%d weight %d: err = %v, want one naming update 1", kind, w, err)
			}
		}
	}
}

// TestBinaryRefusesTombstones: the format keeps the count of deleted
// nodes, which a writer only ever sets to 0; a blob listing one, which
// graphs written while nodes could be deleted may hold, is refused by
// name rather than read as a graph that lost the node's deletion.
func TestBinaryRefusesTombstones(t *testing.T) {
	var buf bytes.Buffer
	if err := buildBinaryFixture(false).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// magic, kind, 6 nodes, 2 labels (ids 1 and 4, one byte each), then
	// the tombstone count.
	const at = len(binaryMagic) + 1 + 1 + 1 + 2*2
	if buf.Bytes()[at] != 0 {
		t.Fatalf("the writer put %d in the tombstone count", buf.Bytes()[at])
	}
	blob := []byte(binaryMagic + "\x00\x03\x00\x01\x02\x00")
	if _, err := ReadBinary(bytes.NewReader(blob)); !errors.Is(err, ErrTombstones) {
		t.Fatalf("a blob listing a tombstone: err = %v, want ErrTombstones", err)
	}
}
