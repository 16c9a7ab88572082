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
