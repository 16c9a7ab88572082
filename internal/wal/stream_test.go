package wal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestStreamHandlerCheckpoint: the listing advertises, and GET /checkpoint
// ships, the newest checkpoint that decodes, v2 or v3. A corrupt newest
// file is passed over, and a file rewritten under a name the handler has
// already read is read again.
func TestStreamHandlerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := httptest.NewServer(l.StreamHandler())
	defer srv.Close()
	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	check := func(what string, want uint64) {
		t.Helper()
		_, body := get("/segments")
		var lst StreamListing
		if err := json.Unmarshal(body, &lst); err != nil {
			t.Fatal(err)
		}
		if lst.CheckpointSeq != want {
			t.Fatalf("%s: listing names checkpoint %d, want %d", what, lst.CheckpointSeq, want)
		}
		code, got := get("/checkpoint")
		if want == 0 {
			if code != http.StatusNotFound {
				t.Fatalf("%s: GET /checkpoint = %d, want 404", what, code)
			}
			return
		}
		file, err := os.ReadFile(filepath.Join(dir, ckptName(want)))
		if err != nil || code != http.StatusOK || !bytes.Equal(got, file) {
			t.Fatalf("%s: GET /checkpoint = %d with %d bytes, want %s's %d (%v)", what, code, len(got), ckptName(want), len(file), err)
		}
	}

	check("empty", 0)
	writeCheckpoints(t, dir, &Checkpoint{Epoch: 2, Graph: []byte("g"), V2: true})
	check("v2 only", 2)
	for _, e := range []uint64{5, 9} {
		if _, err := WriteCheckpoint(dir, &Checkpoint{Epoch: e, Graph: []byte("cut")}); err != nil {
			t.Fatal(err)
		}
	}
	check("two v2 files", 9)
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("newest torn", 5)
	if _, err := WriteCheckpoint(dir, &Checkpoint{Epoch: 9, Graph: []byte("cut, again")}); err != nil {
		t.Fatal(err)
	}
	check("newest rewritten", 9)
}

// TestTailWaitsAtZeroFilledFrame: a segment extended by zeros past its
// last record — what a crash can leave — ends Replay's prefix cleanly,
// and a Tail reads the same frames by the same scanner: it emits the
// record and then waits at the zero-filled frame, as at an incomplete
// one, rather than failing on every Advance. When the bytes that replace
// the zeros arrive, it reads on.
func TestTailWaitsAtZeroFilledFrame(t *testing.T) {
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
	one, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(one, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := Replay(dir, 0, nil); err != nil || n != 1 {
		t.Fatalf("Replay: %d records, err %v; want 1, nil", n, err)
	}
	tail := NewTail(dir, 0)
	for k, want := range []int{1, 0} {
		if n, err := tail.Advance(nil); err != nil || n != want {
			t.Fatalf("Advance %d: %d records, err %v; want %d, nil", k, n, err, want)
		}
	}
	if tail.Off != int64(len(one)) {
		t.Fatalf("tail at offset %d, want %d: the end of the record", tail.Off, len(one))
	}

	// The zeros are replaced by a whole frame: the tail reads it.
	other := t.TempDir()
	l2, err := Open(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Batch: mkBatch(3)}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	second, err := os.ReadFile(filepath.Join(other, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(one, second...), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int
	if n, err := tail.Advance(func(r Record) error { got = append(got, len(r.Batch)); return nil }); err != nil || n != 1 || got[0] != 3 {
		t.Fatalf("after the zeros were replaced: %d records %v, err %v; want the 3-update record", n, got, err)
	}
}
