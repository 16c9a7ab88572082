package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the graph parser: it must never panic, and anything
// it accepts must re-serialize and re-parse to an equal graph.
func FuzzRead(f *testing.F) {
	f.Add("graph directed 3\nv 1 7\ne 0 1 5\ne 1 2 2\n")
	f.Add("graph undirected 2\ne 0 1 1\n")
	f.Add("# comment\n\ngraph directed 0\n")
	f.Add("graph directed 2\ne 0 1 -5\n")
	f.Add("e 0 1 1")
	f.Add("graph directed 999999\n")
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
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
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
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("accepted graph inconsistent: %v", err)
		}
	})
}

// FuzzReadBatch exercises the batch parser the same way.
func FuzzReadBatch(f *testing.F) {
	f.Add("+ 1 2 3\n- 4 5\n")
	f.Add("# nothing\n")
	f.Add("+ -1 -2 -3")
	// Boundary weights: the largest legal one, Infinity, and MaxInt64.
	f.Add("+ 1 2 2305843009213693950\n")
	f.Add("+ 1 2 2305843009213693951\n")
	f.Add("- 1 2 9223372036854775807\n")
	// Torn-write corpora: a valid multi-line batch cut mid-line at every
	// offset, the shape a crash leaves behind in a text batch file.
	whole := "+ 1 2 3\n- 4 5 6\n+ 100 200 -7\n- 8 9\n"
	for cut := 0; cut < len(whole); cut++ {
		f.Add(whole[:cut])
	}
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		b, err := ReadBatch(strings.NewReader(in))
		if err != nil {
			return
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

// FuzzDecodeBatchBinary exercises the binary batch decoder used by the
// WAL frame payloads: arbitrary bytes must never panic, and an accepted
// batch must re-encode to a decodable equal batch.
func FuzzDecodeBatchBinary(f *testing.F) {
	seed := AppendBatchBinary(nil, Batch{
		{Kind: InsertEdge, From: 1, To: 2, W: 3},
		{Kind: DeleteEdge, From: 4, To: 5, W: -6},
	})
	f.Add(seed)
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
