package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"incgraph/internal/graph"
)

func mkBatch(n int) graph.Batch {
	var b graph.Batch
	for i := 0; i < n; i++ {
		b = append(b, graph.Update{Kind: graph.InsertEdge, From: graph.NodeID(i), To: graph.NodeID(i + 1), W: int64(i)})
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Algo: "", Batch: mkBatch(3)},
		{Algo: "sssp", Batch: nil},
		{Algo: "bc", Batch: mkBatch(100)},
	}
	for _, r := range recs {
		enc := EncodeRecord(nil, r)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Algo != r.Algo || len(got.Batch) != len(r.Batch) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
		for i := range r.Batch {
			if got.Batch[i] != r.Batch[i] {
				t.Fatalf("update %d: got %+v want %+v", i, got.Batch[i], r.Batch[i])
			}
		}
	}
}

// TestRecordTraceTailRoundTrip pins the extended record layout: trace ID
// and wall-clock stamp survive the codec, untraced records keep the
// legacy byte layout, and legacy payloads decode with zero Trace/Nanos.
func TestRecordTraceTailRoundTrip(t *testing.T) {
	r := Record{Algo: "sssp", Batch: mkBatch(4), Nanos: 1700000000123456789}
	copy(r.Trace[:], "0123456789abcdef")
	enc := EncodeRecord(nil, r)
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != r.Trace || got.Nanos != r.Nanos || got.Algo != r.Algo || len(got.Batch) != len(r.Batch) {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}

	legacy := Record{Algo: "cc", Batch: mkBatch(2)}
	legacyEnc := EncodeRecord(nil, legacy)
	withTail := EncodeRecord(nil, Record{Algo: "cc", Batch: mkBatch(2), Nanos: 1})
	if len(withTail) != len(legacyEnc)+recordTailLen {
		t.Fatalf("tail adds %d bytes, want %d", len(withTail)-len(legacyEnc), recordTailLen)
	}
	dec, err := DecodeRecord(legacyEnc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trace != ([16]byte{}) || dec.Nanos != 0 {
		t.Fatalf("legacy record decoded with nonzero trace/nanos: %+v", dec)
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Algo: "", Batch: mkBatch(2)},
		{Algo: "cc", Batch: mkBatch(5)},
		{Algo: "", Batch: mkBatch(1)},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, err := Replay(dir, 0, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records %+v, want %+v", n, got, want)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(Record{Batch: mkBatch(3)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail: chop bytes off the last frame, as a crash mid-write
	// would.
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Reopen: the torn frame is truncated away, 3 records survive, and the
	// log accepts appends again.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Algo: "post", Batch: mkBatch(1)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var algos []string
	n, err := Replay(dir, 0, func(r Record) error { algos = append(algos, r.Algo); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || algos[3] != "post" {
		t.Fatalf("after torn-tail reopen: %d records, algos %v", n, algos)
	}
}

// TestZeroFilledTailIsTorn: a crash can leave a segment extended by zeros,
// and a zero header reads as a CRC-valid empty frame. No append writes an
// empty frame, so replay stops there cleanly — while a CRC-valid frame
// holding something that is no record is an error naming it.
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Batch: mkBatch(2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(data, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := Replay(dir, 0, nil); err != nil || n != 1 {
		t.Fatalf("zero-filled tail: replayed %d, err %v; want 1, nil", n, err)
	}
	payload := []byte{0xff} // an algo tag longer than the payload
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(seg, append(append(data, frame...), payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); err == nil || !strings.Contains(err.Error(), "segment 1: record 2") {
		t.Fatalf("CRC-valid undecodable frame: err = %v, want one naming segment 1, record 2", err)
	}
}

func TestCorruptMidFrameStopsPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Batch: mkBatch(2)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip one payload byte in the middle frame.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatal(err) // single segment: a corrupt tail is a clean stop
	}
	if n >= 3 {
		t.Fatalf("replayed %d records through corruption", n)
	}
}

func TestCorruptionBeforeLaterSegmentsIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Batch: mkBatch(2)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := Segments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	// Corrupt the first segment; later segments hold records beyond the
	// hole, so Replay must surface an error rather than silently skip.
	seg := filepath.Join(dir, segName(segs[0]))
	data, _ := os.ReadFile(seg)
	data[len(data)-1] ^= 0xff
	os.WriteFile(seg, data, 0o644)
	if _, err := Replay(dir, 0, nil); err == nil {
		t.Fatal("expected error replaying past a mid-log corruption hole")
	}
}

func TestRotateAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Batch: mkBatch(1)})
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rotate returned seq %d, want 2", seq)
	}
	l.Append(Record{Algo: "after", Batch: mkBatch(1)})
	if err := l.RemoveBefore(seq); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var algos []string
	n, err := Replay(dir, seq, func(r Record) error { algos = append(algos, r.Algo); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || algos[0] != "after" {
		t.Fatalf("replay from %d: %d records %v", seq, n, algos)
	}
	if segs, _ := Segments(dir); len(segs) != 1 || segs[0] != seq {
		t.Fatalf("segments after prune: %v", segs)
	}
}

// TestReplayRefusesGap: the segments a replay reads must run on from its
// first one without a hole. A missing segment is an error naming it,
// before any record is replayed — whether it is the one replay starts
// from, one in the middle, or the one a from-0 replay would have
// continued in — never records skipped without a word.
func TestReplayRefusesGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Batch: mkBatch(1)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if segs, _ := Segments(dir); !reflect.DeepEqual(segs, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("segments %v, want 1..5", segs)
	}
	if n, err := Replay(dir, 2, nil); err != nil || n != 4 {
		t.Fatalf("replay from 2 of an intact log: %d records, err %v", n, err)
	}
	if err := os.Remove(filepath.Join(dir, segName(3))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from    uint64
		missing string
		n       int
	}{
		{0, "segment 3 missing", 0},
		{2, "segment 3 missing", 0},
		{3, "segment 3 missing", 0},
		{6, "segment 6 missing", 0},
	} {
		n, err := Replay(dir, tc.from, nil)
		if err == nil || !strings.Contains(err.Error(), tc.missing) || n != tc.n {
			t.Errorf("replay from %d: %d records, err %v; want %d and %q", tc.from, n, err, tc.n, tc.missing)
		}
	}
	if n, err := Replay(dir, 4, nil); err != nil || n != 2 {
		t.Fatalf("replay from 4, past the hole: %d records, err %v", n, err)
	}
	// With the head pruned too, a replay from 0 (no checkpoint decodes)
	// would start mid-stream: segment 1 is missing, whatever follows.
	for _, seq := range []uint64{1, 2} {
		if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
			t.Fatal(err)
		}
		if n, err := Replay(dir, 0, nil); err == nil || !strings.Contains(err.Error(), "segment 1 missing") || n != 0 {
			t.Errorf("replay from 0 without segments 1..%d: %d records, err %v; want 0 and segment 1 missing", seq, n, err)
		}
	}
}

func TestSyncHookSkipsFsync(t *testing.T) {
	dir := t.TempDir()
	drop := false
	l, err := Open(dir, Options{SyncHook: func() bool { return drop }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Batch: mkBatch(1)}); err != nil {
		t.Fatal(err)
	}
	_, syncsBefore := l.Stats()
	drop = true
	if err := l.Append(Record{Batch: mkBatch(1)}); err != nil {
		t.Fatal(err)
	}
	appends, syncsAfter := l.Stats()
	if appends != 2 {
		t.Fatalf("appends = %d, want 2", appends)
	}
	if syncsAfter != syncsBefore {
		t.Fatalf("fsync happened under a dropping hook: %d -> %d", syncsBefore, syncsAfter)
	}
}

func TestIntervalPolicyFlushesOnClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Batch: mkBatch(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Replay(dir, 0, nil); err != nil || n != 10 {
		t.Fatalf("replay after interval close: n=%d err=%v", n, err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpoint{
		Epoch:      42,
		Batches:    5,
		ReplayFrom: 7,
		Graph:      []byte("graphbytes"),
		Algos: []AlgoState{
			{Name: "sssp", State: []byte{1, 2, 3}},
			{Name: "dfs", State: []byte{}},
		},
	}
	path, err := WriteCheckpoint(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "checkpoint-0000000000000042.ckpt2" {
		t.Fatalf("written as %s", path)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.V2 || got.Epoch != 42 || got.Batches != 5 || got.ReplayFrom != 7 || string(got.Graph) != "graphbytes" || len(got.Algos) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Algos[0].Name != "sssp" || string(got.Algos[0].State) != "\x01\x02\x03" {
		t.Fatalf("algo 0: %+v", got.Algos[0])
	}
}

// TestCheckpointMixedVersions: v2 and v3 files are both named by stream
// epoch, so they are one list. The newest file that decodes is loaded
// whatever its format, a v2 one marked V2, and pruning drops the oldest
// by epoch.
func TestCheckpointMixedVersions(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, &Checkpoint{Epoch: 100, Graph: []byte("v2 cut"), V2: true}, &Checkpoint{Epoch: 300, Graph: []byte("cut")},
		&Checkpoint{Epoch: 200, Graph: []byte("older v2 cut"), V2: true})
	got, err := LatestCheckpoint(dir)
	if err != nil || got == nil || got.V2 || got.Epoch != 300 {
		t.Fatalf("loaded %+v (%v), want the v3 checkpoint at 300", got, err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(300)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err = LatestCheckpoint(dir); err != nil || got == nil || !got.V2 || got.Epoch != 200 {
		t.Fatalf("loaded %+v (%v), want the v2 checkpoint at 200", got, err)
	}
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := checkpointFiles(dir)
	if err != nil || len(names) != 2 || names[0] != ckptName(200) || names[1] != ckptName(300) {
		t.Fatalf("after prune: %v (%v), want the files at 200 and 300", names, err)
	}
}

func TestLatestCheckpointSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	oldCk := &Checkpoint{Epoch: 1, ReplayFrom: 1, Algos: []AlgoState{{Name: "cc"}}}
	if _, err := WriteCheckpoint(dir, oldCk); err != nil {
		t.Fatal(err)
	}
	newPath, err := WriteCheckpoint(dir, &Checkpoint{Epoch: 9, ReplayFrom: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint; recovery must fall back to epoch 1.
	data, _ := os.ReadFile(newPath)
	data[len(data)/2] ^= 0x01
	os.WriteFile(newPath, data, 0o644)
	got, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 1 {
		t.Fatalf("fallback checkpoint: %+v", got)
	}
	// Truncated-to-zero (crash during an overwrite) must also fall back.
	os.WriteFile(newPath, nil, 0o644)
	if got, err = LatestCheckpoint(dir); err != nil || got == nil || got.Epoch != 1 {
		t.Fatalf("fallback past empty file: %+v err=%v", got, err)
	}
}

func TestLatestCheckpointEmptyDir(t *testing.T) {
	got, err := LatestCheckpoint(t.TempDir())
	if err != nil || got != nil {
		t.Fatalf("empty dir: %+v err=%v", got, err)
	}
	got, err = LatestCheckpoint(filepath.Join(t.TempDir(), "missing"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: %+v err=%v", got, err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for _, e := range []uint64{1, 2, 3, 4} {
		if _, err := WriteCheckpoint(dir, &Checkpoint{Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != ckptName(3) || names[1] != ckptName(4) {
		t.Fatalf("after prune: %v", names)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < each && err == nil; i++ {
				err = l.Append(Record{Batch: mkBatch(1 + w%3)})
			}
			done <- err
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs := l.Stats()
	l.Close()
	if appends != writers*each {
		t.Fatalf("appends = %d, want %d", appends, writers*each)
	}
	// The point of group commit: far fewer fsyncs than appends. This is
	// timing-dependent, so only assert the invariant syncs <= appends.
	if syncs > appends {
		t.Fatalf("syncs %d > appends %d", syncs, appends)
	}
	if n, err := Replay(dir, 0, nil); err != nil || n != writers*each {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
}
