package main

// A warm replica answers GET /query/{algo} through the same code as the
// primary: the same parameters, the same bytes, the same refusals.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"incgraph"
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

func TestReplicaQueryMatchesPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	paddr, raddr := freeAddr(t), freeAddr(t)
	primary := startDaemon(t, bin, paddr, t.TempDir())
	defer func() { primary.Process.Kill(); primary.Wait() }()
	base := incgraph.PowerLawGraph(crashSeed, crashNodes, crashDeg, true)
	for i := 0; i < 5; i++ {
		if code, err := postBatch(paddr, incgraph.RandomUpdates(int64(i+1), base, 5, 0.7)); err != nil || code != http.StatusOK {
			t.Fatalf("post %d: code=%d err=%v", i, code, err)
		}
	}

	replica := exec.Command(bin,
		"-gen", "powerlaw", "-seed", fmt.Sprint(crashSeed),
		"-nodes", fmt.Sprint(crashNodes), "-deg", fmt.Sprint(crashDeg), "-directed",
		"-algos", "sssp,cc", "-src", "0",
		"-replica-of", "http://"+paddr, "-data-dir", t.TempDir(), "-listen", raddr)
	replica.Stderr = os.Stderr
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { replica.Process.Kill(); replica.Wait() }()

	// Wait for the replica to replay everything the primary acknowledged.
	want := query(t, paddr, "sssp").Epoch
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + raddr + "/query/sssp?compact=1&range=0:0")
		if err == nil {
			var v queryView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err == nil && v.Epoch == want {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached epoch %d: %v", want, err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	for _, algo := range []string{"sssp", "cc"} {
		const q = "?compact=1&range=0:4"
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
}
