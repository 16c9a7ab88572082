package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"incgraph/internal/graph"
)

// FuzzDecodeRecord hammers the WAL record decoder with arbitrary bytes —
// including torn-write corpora: valid encodings truncated and corrupted
// at every interesting offset. The decoder must never panic and a
// successful decode must re-encode losslessly.
func FuzzDecodeRecord(f *testing.F) {
	seedRecords := []Record{
		{},
		{Algo: "sssp"},
		{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 5}}},
		{Algo: "bc", Batch: graph.Batch{
			{Kind: graph.InsertEdge, From: 3, To: 9, W: -2},
			{Kind: graph.DeleteEdge, From: 9, To: 3},
		}},
	}
	for _, r := range seedRecords {
		enc := EncodeRecord(nil, r)
		f.Add(enc)
		// Torn-write corpora: every truncation prefix of a valid record.
		for cut := 0; cut < len(enc); cut++ {
			f.Add(append([]byte(nil), enc[:cut]...))
		}
		// Single-byte corruptions at a few offsets.
		for _, at := range []int{0, len(enc) / 2, len(enc) - 1} {
			if at >= 0 && at < len(enc) {
				mut := append([]byte(nil), enc...)
				mut[at] ^= 0xff
				f.Add(mut)
			}
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := EncodeRecord(nil, r)
		r2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if r2.Algo != r.Algo || len(r2.Batch) != len(r.Batch) {
			t.Fatalf("lossy round trip: %+v vs %+v", r, r2)
		}
	})
}

// FuzzDecodeCheckpoint feeds the checkpoint decoder arbitrary bytes: it
// returns an error or a checkpoint that re-encodes to exactly the input —
// never a panic, and no allocation past what a length field inside the
// input can justify (each is checked against the bytes left, and against
// maxCkptBlob). Each input is also tried with its CRC made valid, so the
// fuzzer reaches the fields behind the checksum. Seeds: a v2 and a v3
// encoding, an empty v3 one, their truncations, and a length field longer
// than the body.
func FuzzDecodeCheckpoint(f *testing.F) {
	algos := []AlgoState{{Name: "cc", State: []byte{1, 2}}, {Name: "sssp", State: []byte{3}}, {Name: "lcc"}}
	for _, c := range []*Checkpoint{
		{Epoch: 300, Batches: 7, ReplayFrom: 3, Graph: []byte("graph"), V2: true, Algos: algos},
		{Epoch: 300, Batches: 7, ReplayFrom: 3, Graph: []byte("graph"), Algos: algos},
		{},
	} {
		enc := encodeAs(c)
		f.Add(enc)
		for cut := 0; cut < len(enc); cut += 2 {
			f.Add(append([]byte(nil), enc[:cut]...))
		}
	}
	// A graph length of 2^40 in a body of a few bytes, under a valid CRC.
	long := binary.AppendUvarint([]byte(ckptMagic+"\x01\x01\x01"), 1<<40)
	f.Add(binary.LittleEndian.AppendUint32(long, crc32.Checksum(long, castagnoli)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// As given, and with its CRC made valid, so the fuzzer reaches
		// the fields behind the checksum too.
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.Checksum(data, castagnoli))
		for _, in := range [][]byte{data, sealed} {
			if c, err := decodeCheckpoint(in); err == nil && !bytes.Equal(encodeAs(c), in) {
				t.Fatalf("decoded %+v re-encodes to %x, not %x", c, encodeAs(c), in)
			}
		}
	})
}

// encodeAs encodes c in its format: v2, which nothing writes any more, is
// v3's layout under v2's magic.
func encodeAs(c *Checkpoint) []byte {
	enc := c.encode()
	if !c.V2 {
		return enc
	}
	body := append([]byte(ckptMagicV2), enc[len(ckptMagic):len(enc)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// writeCheckpoints writes each of cs into dir in its format, named by its
// epoch.
func writeCheckpoints(t testing.TB, dir string, cs ...*Checkpoint) {
	t.Helper()
	for _, c := range cs {
		if err := os.WriteFile(filepath.Join(dir, ckptName(c.Epoch)), encodeAs(c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
