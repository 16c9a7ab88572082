package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// returns an error or a checkpoint that re-encodes to exactly the input (a
// v1 split cut to what decodes to the same checkpoint) — never a panic, and no allocation past what a length field inside the
// input can justify (each is checked against the bytes left, and against
// maxCkptBlob). Each input is also tried with its CRC made valid, so the
// fuzzer reaches the fields behind the checksum. Seeds: a v1 and a v2
// encoding, their truncations, and a length field longer than the body.
func FuzzDecodeCheckpoint(f *testing.F) {
	v2 := (&Checkpoint{Epoch: 300, Batches: 7, ReplayFrom: 3, Graph: []byte("graph"),
		Algos: []AlgoState{{Name: "cc", State: []byte{1, 2}}, {Name: "sssp", State: []byte{3}}}}).encode()
	v1 := encodeV1(&Checkpoint{Epoch: 600, ReplayFrom: 3, Graph: []byte("graph"),
		Algos: []AlgoState{{Name: "cc", State: []byte{1, 2}}, {Name: "sssp", State: []byte{3}}}})
	split := encodeV1(&Checkpoint{Epoch: 900, ReplayFrom: 3, Graph: []byte("graph"),
		Algos: []AlgoState{{Name: "cc", State: []byte{1}}, {Name: "lcc", State: []byte{2}}, {Name: "sssp", State: []byte{3}}}})
	split = bytes.Replace(split, []byte("graph\x01\x02"), []byte("grapH\x01\x02"), 1) // lcc's graph
	split = binary.LittleEndian.AppendUint32(split[:len(split)-4], crc32.Checksum(split[:len(split)-4], castagnoli))
	for _, enc := range [][]byte{v1, v2, split} {
		f.Add(enc)
		for cut := 0; cut < len(enc); cut += 3 {
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
			c, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			enc := c.encode()
			if c.V1 {
				enc = encodeV1(c)
			}
			if bytes.Equal(enc, in) {
				continue
			}
			// A v1 split cut loses the states of the classes whose graph
			// was not most classes' (majorityV1): the rest must survive.
			again, err := decodeCheckpoint(enc)
			dropped := slices.ContainsFunc(c.Algos, func(a AlgoState) bool { return len(a.State) == 0 })
			if !c.V1 || !dropped || err != nil || !reflect.DeepEqual(again, c) {
				t.Fatalf("decoded %+v re-encodes to %x, not %x", c, enc, in)
			}
		}
	})
}

// encodeV1 encodes c in the v1 format, which nothing writes any more: the
// epoch and ReplayFrom, then per class its name, c.Graph and its state.
func encodeV1(c *Checkpoint) []byte {
	buf := binary.AppendUvarint([]byte(ckptMagicV1), c.Epoch)
	buf = binary.AppendUvarint(buf, c.ReplayFrom)
	buf = binary.AppendUvarint(buf, uint64(len(c.Algos)))
	for _, a := range c.Algos {
		buf = appendField(appendField(appendField(buf, []byte(a.Name)), c.Graph), a.State)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// writeV1 writes c into dir as a v1 file, named by its epoch.
func writeV1(t testing.TB, dir string, c *Checkpoint) {
	t.Helper()
	name := fmt.Sprintf("%s%016d%s", ckptPrefix, c.Epoch, ckptSuffixV1)
	if err := os.WriteFile(filepath.Join(dir, name), encodeV1(c), 0o644); err != nil {
		t.Fatal(err)
	}
}
