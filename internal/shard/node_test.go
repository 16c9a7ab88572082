package shard

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// shardConfig is the config of shard id of p over g, hosting sssp from
// src and cc, as incgraphd -shard-id id -shards n -algos sssp,cc sets it.
func shardConfig(g *graph.Graph, p Partitioner, id int, src graph.NodeID) NodeConfig {
	return NodeConfig{
		Algos: []string{"sssp", "cc"}, Src: int(src),
		Input:   func() (*graph.Graph, error) { return g, nil },
		ShardID: id, Shards: p.Shards(), VerifyRecovery: true,
	}
}

// bootNode starts cfg's node, promotions opening their log with open, and
// closes it when the test ends: after every server registered later.
func bootNode(t *testing.T, cfg NodeConfig, open openLog) *Node {
	t.Helper()
	n, err := startNode(cfg, open)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestStartNodeFailureClosesWhatItOpened: a start that fails returns its
// error having closed what it opened — the service, with its hosts' apply
// loop — so a library caller leaks no goroutine.
func TestStartNodeFailureClosesWhatItOpened(t *testing.T) {
	g := gen.PowerLaw(rand.New(rand.NewSource(3)), 60, 4, true)
	p := NewHashPartitioner(2)
	// A path below a regular file: no directory can be made there.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var opened *serve.Service // what refuse was handed
	refuse := func(svc *serve.Service, _ string, _ serve.DurableOptions) (*serve.Durable, error) {
		opened = svc
		return nil, errors.New("log refused")
	}
	cases := []struct {
		name string
		edit func(*NodeConfig)
		open openLog
		want string
	}{
		{"source out of range", func(c *NodeConfig) { c.Algos = []string{"cc", "sssp"}; c.Src = g.NumNodes() },
			serve.OpenDurable, "out of range"},
		{"data dir", func(c *NodeConfig) { c.DataDir = filepath.Join(blocker, "d") }, serve.OpenDurable, "not a directory"},
		{"replica data dir", func(c *NodeConfig) {
			c.DataDir, c.ReplicaOf = filepath.Join(blocker, "r"), "http://127.0.0.1:1"
		}, serve.OpenDurable, "replica data dir"},
		// The classes are hosted, their apply loop running, when the log fails.
		{"log", func(c *NodeConfig) { c.DataDir = t.TempDir() }, refuse, "log refused"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			cfg := shardConfig(g, p, 0, 0)
			cfg.Sync = wal.SyncAlways
			tc.edit(&cfg)
			n, err := startNode(cfg, tc.open)
			if err == nil {
				n.Close()
				t.Fatal("start succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to say %q", err, tc.want)
			}
			// One apply loop is inside leakCheck's slack: ask the service.
			if opened != nil {
				if _, err := opened.Submit(nil, trace.TraceID{}); !errors.Is(err, serve.ErrClosed) {
					t.Fatalf("the failed start left its service open: Submit err = %v", err)
				}
			}
		})
	}
}
