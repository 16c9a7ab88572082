package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"syscall"
	"testing"

	"incgraph"
	"incgraph/internal/wal"
)

// TestRestartWithAddedClass restarts a durable daemon with one class more
// than its checkpoint covers. The new class must answer for the graph its
// siblings hold — the checkpoint's, plus the WAL tail — at their epoch,
// not for the input graph plus the tail at an epoch of its own.
func TestRestartWithAddedClass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	base := incgraph.PowerLawGraph(crashSeed, crashNodes, crashDeg, false)
	start := func(algos string) (*exec.Cmd, string) {
		addr := freeAddr(t)
		cmd := exec.Command(bin, "-gen", "powerlaw", "-seed", fmt.Sprint(crashSeed),
			"-nodes", fmt.Sprint(crashNodes), "-deg", fmt.Sprint(crashDeg),
			"-algos", algos, "-src", "0", "-data-dir", dataDir,
			"-checkpoint-every", "0", "-fsync", "always", "-listen", addr)
		cmd.Stderr = os.Stderr
		return launch(t, cmd, addr), addr
	}
	post := func(addr string, seeds ...int) {
		for _, s := range seeds {
			if code, err := postBatch(addr, incgraph.RandomUpdates(int64(s), base, 5, 0.7)); err != nil || code != http.StatusOK {
				t.Fatalf("post %d: code=%d err=%v", s, code, err)
			}
		}
	}

	// A checkpoint of sssp and cc (SIGTERM checkpoints on drain), then a
	// WAL tail past it (kill -9 takes none).
	proc, addr := start("sssp,cc")
	post(addr, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
	proc, addr = start("sssp,cc")
	post(addr, 21, 22, 23, 24, 25, 26)
	proc.Process.Kill()
	proc.Wait()

	// What the siblings hold: the checkpoint's cc graph and the tail.
	rec, err := incgraph.LoadRecovery(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Algos["lcc"]; ok || len(rec.Algos) == 0 {
		t.Fatalf("checkpoint covers %d classes, lcc among them: %v", len(rec.Algos), ok)
	}
	g := rec.Algos["cc"].Graph
	epoch := rec.CheckpointEpoch
	records, err := wal.Replay(dataDir, rec.ReplayFrom, func(r wal.Record) error {
		g.Apply(r.Batch.Net(false))
		epoch += uint64(len(r.Batch))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("no WAL tail past the checkpoint")
	}
	want := incgraph.LCC(g)

	proc, addr = start("sssp,cc,lcc")
	defer func() {
		proc.Process.Signal(syscall.SIGTERM)
		proc.Wait()
	}()
	resp, err := http.Get("http://" + addr + "/query/lcc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lcc struct {
		Epoch uint64 `json:"epoch"`
		Data  struct {
			Deg []int32 `json:"deg"`
			Tri []int64 `json:"tri"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lcc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lcc.Data.Deg, want.Deg) || !reflect.DeepEqual(lcc.Data.Tri, want.Tri) {
		t.Fatal("the added lcc answers for another graph than its siblings': its degrees or triangles differ from a recompute on cc's")
	}
	if sssp := query(t, addr, "sssp"); lcc.Epoch != epoch || sssp.Epoch != epoch {
		t.Fatalf("epochs: lcc %d, sssp %d; want both %d (the checkpoint's plus the tail)", lcc.Epoch, sssp.Epoch, epoch)
	}
}
