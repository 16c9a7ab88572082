package main

// A warm replica is the same daemon as a primary: it answers GET
// /query/{algo} through the same code (the same parameters, the same
// bytes, the same refusals), honours the same process flags, and a
// promotion changes its role without moving its epochs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/shard"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// shardInfo fetches a daemon's GET /shard/info.
func shardInfo(t *testing.T, addr string) shard.Info {
	t.Helper()
	var info shard.Info
	if resp, body := get(t, "http://"+addr+"/shard/info"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/shard/info on %s: %d %s", addr, resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitReplayed blocks until the replica on raddr publishes sssp at epoch.
func waitReplayed(t *testing.T, raddr string, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + raddr + "/query/sssp?range=0:0")
		if err == nil {
			var v queryView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err == nil && v.Epoch == epoch {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached epoch %d: %v", epoch, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestReplicaQueryMatchesPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	paddr, raddr := freeAddr(t), freeAddr(t)
	// One-shard shard mode: the fragment is the whole graph, and the
	// daemons mount /shard/info, where a replica states its role.
	sharded := []string{"-shard-id", "0", "-shards", "1"}
	primary := startDaemon(t, bin, paddr, t.TempDir(), sharded...)
	defer func() { primary.Process.Kill(); primary.Wait() }()
	base := incgraph.PowerLawGraph(crashSeed, crashNodes, crashDeg, true)
	for i := 0; i < 5; i++ {
		if code, err := postBatch(paddr, incgraph.RandomUpdates(int64(i+1), base, 5, 0.7)); err != nil || code != http.StatusOK {
			t.Fatalf("post %d: code=%d err=%v", i, code, err)
		}
	}

	rdir := t.TempDir()
	replica := startDaemon(t, bin, raddr, rdir, append(sharded, "-replica-of", "http://"+paddr)...)
	defer func() { replica.Process.Kill(); replica.Wait() }()

	// Wait for the replica to replay everything the primary acknowledged.
	waitReplayed(t, raddr, query(t, paddr, "sssp").Epoch)

	for _, algo := range []string{"sssp", "cc"} {
		const q = "?range=0:4"
		pr, pb := get(t, "http://"+paddr+"/query/"+algo+q)
		rr, rb := get(t, "http://"+raddr+"/query/"+algo+q)
		if pr.StatusCode != http.StatusOK || rr.StatusCode != http.StatusOK {
			t.Fatalf("%s: primary %d, replica %d", algo, pr.StatusCode, rr.StatusCode)
		}
		if got := rr.Header.Get("Content-Length"); got != fmt.Sprint(len(rb)) {
			t.Errorf("%s: replica Content-Length %q, body is %d bytes", algo, got, len(rb))
		}
		var pv, rv map[string]any
		if err := json.Unmarshal(pb, &pv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rb, &rv); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rv["range"], []any{0.0, 4.0}) {
			t.Errorf("%s: replica ignored ?range=: %s", algo, rb)
		}
		if rv["degraded"] != true {
			t.Errorf("%s: replica view is not stamped degraded: %s", algo, rb)
		}
		for _, k := range []string{"epoch", "batches", "degraded"} {
			delete(pv, k)
			delete(rv, k)
		}
		if !reflect.DeepEqual(pv, rv) {
			t.Errorf("%s: replica answer differs from the primary's beyond epoch/batches/degraded\nprimary: %s\nreplica: %s", algo, pb, rb)
		}
		for _, addr := range []string{paddr, raddr} {
			if resp, body := get(t, "http://"+addr+"/query/"+algo+"?range=4:0"); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: malformed range answered %d: %s", algo, addr, resp.StatusCode, body)
			}
		}
	}

	// Promotion continuity: the hosts were serving all along, so the
	// promotion moves no epoch — it flips the role, admits writes, and the
	// views stop being stamped degraded.
	if code, err := postBatch(raddr, incgraph.RandomUpdates(99, base, 5, 0.7)); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("POST /update before promotion: code=%d err=%v, want 503", code, err)
	}
	before := shardInfo(t, raddr)
	if !before.Replica || !reflect.DeepEqual(before.Epochs, shardInfo(t, paddr).Epochs) {
		t.Fatalf("replica /shard/info before promotion: %+v", before)
	}
	resp, err := http.Post("http://"+raddr+"/replica/promote", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %v %v", resp, err)
	}
	resp.Body.Close()
	after := shardInfo(t, raddr)
	if after.Replica || !reflect.DeepEqual(after.Epochs, before.Epochs) {
		t.Fatalf("/shard/info across the promotion: before %+v, after %+v", before, after)
	}
	if resp, err := http.Post("http://"+raddr+"/replica/promote", "", nil); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("second promote: %v %v, want 409", resp, err)
	}
	if code, err := postBatch(raddr, incgraph.RandomUpdates(100, base, 5, 0.7)); err != nil || code != http.StatusOK {
		t.Fatalf("POST /update after promotion: code=%d err=%v", code, err)
	}
	for algo, e := range shardInfo(t, raddr).Epochs {
		if e != before.Epochs[algo]+5 {
			t.Errorf("%s: epoch %d after a 5-update write on top of %d", algo, e, before.Epochs[algo])
		}
	}
	views := map[string][]byte{}
	for _, algo := range []string{"sssp", "cc"} {
		_, views[algo] = get(t, "http://"+raddr+"/query/"+algo)
		if bytes.Contains(views[algo], []byte(`"degraded"`)) {
			t.Errorf("%s: view still degraded after promotion: %.120s", algo, views[algo])
		}
	}

	// The promoted data directory is a primary's: a restart recovers the
	// same views (checkpoint on drain, then an empty replay tail).
	if err := replica.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := replica.Wait(); err != nil {
		t.Fatalf("promoted replica did not exit cleanly on SIGTERM: %v", err)
	}
	raddr = freeAddr(t)
	restarted := startDaemon(t, bin, raddr, rdir, sharded...)
	defer func() { restarted.Process.Kill(); restarted.Wait() }()
	for algo, want := range views {
		if _, got := get(t, "http://"+raddr+"/query/"+algo); !bytes.Equal(got, want) {
			t.Errorf("%s: restart from the promoted data dir recovered another view\n got %.200s\nwant %.200s", algo, got, want)
		}
	}
}

// lockedBuffer is a daemon's captured stderr, written by exec's copier
// goroutine while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestReplicaHonoursProcessFlags: -debug-addr and -access-log belong to
// the daemon, not to a role. A warm replica serves /debug/pprof/ on the
// side listener and logs a pre-promotion GET /query/... — both were
// silently ignored while the replica had a lifecycle of its own.
func TestReplicaHonoursProcessFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	paddr, raddr, daddr := freeAddr(t), freeAddr(t), freeAddr(t)
	primary := startDaemon(t, bin, paddr, t.TempDir())
	defer func() { primary.Process.Kill(); primary.Wait() }()

	var logs lockedBuffer
	cmd := exec.Command(bin, daemonArgs(raddr, t.TempDir(),
		"-replica-of", "http://"+paddr, "-debug-addr", daddr, "-access-log")...)
	cmd.Stderr = &logs
	replica := launch(t, cmd, raddr)
	defer func() { replica.Process.Kill(); replica.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + daddr + "/debug/pprof/cmdline")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/pprof/cmdline on the replica's -debug-addr: %d", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica's -debug-addr listener never came up: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if resp, body := get(t, "http://"+raddr+"/query/sssp?range=0:1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale read: %d %s", resp.StatusCode, body)
	}
	for !strings.Contains(logs.String(), "path=/query/sssp") {
		if time.Now().After(deadline) {
			t.Fatalf("-access-log logged no pre-promotion GET /query/sssp:\n%s", logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}
