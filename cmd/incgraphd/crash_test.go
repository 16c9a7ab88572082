package main

// Crash-recovery end-to-end test: build the real daemon binary, ingest
// over HTTP, SIGKILL it mid-ingest, and require the restarted daemon's
// answers to be equal to a from-scratch batch recompute over the durable
// prefix — the WAL contents as they survived the kill, torn tail and
// all. A second cycle exercises the checkpoint path: SIGTERM triggers
// checkpoint-on-drain, and a third start must recover from the
// checkpoint with an empty replay tail.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/wal"
)

const (
	crashSeed  = 42
	crashNodes = 400
	crashDeg   = 6
)

// daemon is the incgraphd binary the exec tests run: built by the first
// buildDaemon of a package run, in a directory TestMain removes at its end.
var daemon struct {
	once     sync.Once
	dir, bin string
	err      error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemon.dir != "" {
		os.RemoveAll(daemon.dir)
	}
	os.Exit(code)
}

// buildDaemon returns the package run's incgraphd binary, building it on
// the first call.
func buildDaemon(t *testing.T) string {
	t.Helper()
	daemon.once.Do(func() {
		if daemon.dir, daemon.err = os.MkdirTemp("", "incgraphd-test-"); daemon.err != nil {
			return
		}
		daemon.bin = filepath.Join(daemon.dir, "incgraphd")
		if out, err := exec.Command("go", "build", "-o", daemon.bin, ".").CombinedOutput(); err != nil {
			daemon.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if daemon.err != nil {
		t.Fatal(daemon.err)
	}
	return daemon.bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// daemonArgs is the command line every test daemon shares: the synthetic
// graph, the two hosted classes, and where it keeps its data and listens.
func daemonArgs(addr, dataDir string, extra ...string) []string {
	return append([]string{
		"-gen", "powerlaw", "-seed", fmt.Sprint(crashSeed),
		"-nodes", fmt.Sprint(crashNodes), "-deg", fmt.Sprint(crashDeg), "-directed",
		"-algos", "sssp,cc", "-src", "0",
		"-data-dir", dataDir, "-checkpoint-every", "0", "-fsync", "always",
		"-listen", addr}, extra...)
}

func startDaemon(t *testing.T, bin, addr, dataDir string, extra ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, daemonArgs(addr, dataDir, extra...)...)
	cmd.Stderr = os.Stderr
	return launch(t, cmd, addr)
}

// launch starts cmd and waits until the daemon answers /healthz on addr.
func launch(t *testing.T, cmd *exec.Cmd, addr string) *exec.Cmd {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon on %s never became healthy: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func postBatch(addr string, b incgraph.Batch) (int, error) {
	var buf bytes.Buffer
	if err := incgraph.WriteBatch(&buf, b); err != nil {
		return 0, err
	}
	resp, err := http.Post("http://"+addr+"/update?wait=1", "text/plain", &buf)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

type queryView struct {
	Epoch uint64 `json:"epoch"`
	Data  struct {
		Dist   []int64 `json:"dist"`
		Labels []int64 `json:"labels"`
	} `json:"data"`
}

func query(t *testing.T, addr, algo string) queryView {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/query/" + algo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v queryView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// durableOracle reads the data directory the way recovery does —
// checkpoint graphs (if any) plus every whole WAL record — and returns
// from-scratch batch answers over that durable prefix.
func durableOracle(t *testing.T, dataDir string) (dist, labels []int64, rawUpdates uint64) {
	t.Helper()
	rec, err := incgraph.LoadRecovery(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	gFor := func(algo string) *incgraph.Graph {
		if ra, ok := rec.Algos[algo]; ok {
			return ra.Graph
		}
		return incgraph.PowerLawGraph(crashSeed, crashNodes, crashDeg, true)
	}
	gs, gc := gFor("sssp"), gFor("cc")
	// The epoch a recovered host reports is the checkpoint's stream
	// position plus the replayed tail.
	rawUpdates = rec.CheckpointEpoch
	if _, err := wal.Replay(dataDir, rec.ReplayFrom, func(r wal.Record) error {
		gs.Apply(r.Batch.Net(true))
		gc.Apply(r.Batch.Net(true))
		rawUpdates += uint64(len(r.Batch))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return incgraph.SSSP(gs, 0), incgraph.ConnectedComponents(gc), rawUpdates
}

func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	base := incgraph.PowerLawGraph(crashSeed, crashNodes, crashDeg, true)

	// ---- Cycle 1: ingest, then SIGKILL mid-flood. ----
	addr := freeAddr(t)
	proc := startDaemon(t, bin, addr, dataDir)
	for i := 0; i < 40; i++ {
		b := incgraph.RandomUpdates(int64(i+1), base, 5, 0.7)
		if code, err := postBatch(addr, b); err != nil || code != http.StatusOK {
			t.Fatalf("post %d: code=%d err=%v", i, code, err)
		}
	}
	// Flood without waiting for acks so the kill lands mid-ingest; the
	// durable prefix is whatever reached the WAL.
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		for i := 0; ; i++ {
			b := incgraph.RandomUpdates(int64(1000+i), base, 5, 0.7)
			if _, err := postBatch(addr, b); err != nil {
				return // daemon killed
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	proc.Wait()
	<-floodDone

	wantDist, wantLabels, rawUpdates := durableOracle(t, dataDir)
	if rawUpdates < 200 {
		t.Fatalf("only %d raw updates survived; ingest never ran?", rawUpdates)
	}

	// ---- Cycle 2: restart, answers must equal the recompute oracle. ----
	addr = freeAddr(t)
	proc = startDaemon(t, bin, addr, dataDir)
	sv, cv := query(t, addr, "sssp"), query(t, addr, "cc")
	if !reflect.DeepEqual(sv.Data.Dist, wantDist) {
		t.Fatal("recovered sssp distances differ from from-scratch recompute over the durable prefix")
	}
	if !reflect.DeepEqual(cv.Data.Labels, wantLabels) {
		t.Fatal("recovered cc labels differ from from-scratch recompute over the durable prefix")
	}
	if sv.Epoch != rawUpdates {
		t.Fatalf("recovered epoch %d, want %d (durable raw updates)", sv.Epoch, rawUpdates)
	}

	// A few more durable writes, then SIGTERM: checkpoint-on-drain.
	for i := 0; i < 10; i++ {
		b := incgraph.RandomUpdates(int64(5000+i), base, 5, 0.7)
		if code, err := postBatch(addr, b); err != nil || code != http.StatusOK {
			t.Fatalf("post after recovery: code=%d err=%v", code, err)
		}
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var haveCkpt bool
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt2") {
			haveCkpt = true
		}
	}
	if !haveCkpt {
		t.Fatal("SIGTERM shutdown left no checkpoint (checkpoint-on-drain missing)")
	}

	// ---- Cycle 3: recover from the checkpoint (empty replay tail). ----
	wantDist, wantLabels, rawUpdates = durableOracle(t, dataDir)
	addr = freeAddr(t)
	proc = startDaemon(t, bin, addr, dataDir)
	sv, cv = query(t, addr, "sssp"), query(t, addr, "cc")
	if !reflect.DeepEqual(sv.Data.Dist, wantDist) {
		t.Fatal("checkpoint-recovered sssp distances differ from recompute")
	}
	if !reflect.DeepEqual(cv.Data.Labels, wantLabels) {
		t.Fatal("checkpoint-recovered cc labels differ from recompute")
	}
	if sv.Epoch != rawUpdates {
		t.Fatalf("checkpoint-recovered epoch %d, want %d", sv.Epoch, rawUpdates)
	}
	proc.Process.Signal(syscall.SIGTERM)
	proc.Wait()
}
