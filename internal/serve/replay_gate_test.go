package serve

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
	"incgraph/internal/wal"
)

// TestRecoveryRefusesOutOfRange crafts what a restarting primary reads —
// a WAL segment, CRC-valid, whose second record holds an update no
// POST could have logged, and a checkpoint whose graph holds such an
// edge — and requires recovery to refuse each with an error naming where
// it is. A weight of MaxInt64 makes d + w wrap, −1 breaks Dijkstra, and a
// node past the graph would be skipped as malformed; a replica replaying
// the same records through Host.submit already refused all three.
func TestRecoveryRefusesOutOfRange(t *testing.T) {
	good := graph.Update{Kind: graph.InsertEdge, From: 1, To: 2, W: 3}
	for _, bad := range []graph.Update{
		{Kind: graph.InsertEdge, From: 0, To: 1, W: math.MaxInt64},
		{Kind: graph.InsertEdge, From: 0, To: 1, W: -1},
		{Kind: graph.InsertEdge, From: 0, To: 99, W: 1},
	} {
		dir := t.TempDir()
		log, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []graph.Batch{{good}, {bad}} {
			if err := log.Append(wal.Record{Batch: b}); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]Serveable{
			"sssp": SSSP(sssp.NewInc(graph.New(6, true), 0), 0),
			"cc":   CC(cc.NewInc(graph.New(6, true))),
		}
		_, err = rec.Replay(targets, nil)
		if err == nil || !strings.Contains(err.Error(), "segment 1") || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("replaying %v: err = %v, want one naming segment 1, record 2", bad, err)
		}
		for name, m := range targets {
			if g := m.Graph(); !g.HasEdge(1, 2) || g.HasEdge(0, 1) {
				t.Errorf("replaying %v: %s holds edges 1-2 %v, 0-1 %v; want the first record only", bad, name, g.HasEdge(1, 2), g.HasEdge(0, 1))
			}
		}
	}

	g := graph.New(6, true)
	g.InsertEdge(0, 1, math.MaxInt64)
	var blob, state bytes.Buffer
	if err := g.WriteBinary(&blob); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&state).Encode(stateEnvelope{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ck := &wal.Checkpoint{Epoch: 1, ReplayFrom: 1, Algos: []wal.AlgoState{{Name: "sssp", Graph: blob.Bytes(), State: state.Bytes()}}}
	if _, err := wal.WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRecovery(dir); err == nil || !strings.Contains(err.Error(), "checkpoint graph for sssp") || !strings.Contains(err.Error(), "weight") {
		t.Errorf("loading a checkpoint with an edge of weight MaxInt64: err = %v, want a weight error naming sssp's graph", err)
	}
}

// TestReplayRefusesTargetedRecord: every update reaches every class, so a
// record targeted at one — which a log written before updates stopped
// being targeted can hold, and which nothing logs now — stops recovery
// with an error naming the record, and reaches no class: neither routed
// to its class nor broadcast. Targets that disagree on directedness are
// refused before any record, since each record is netted once for all.
func TestReplayRefusesTargetedRecord(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.Record{
		{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 2, W: 3}}},
		{Algo: "cc", Batch: graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 1}}},
		{Batch: graph.Batch{{Kind: graph.InsertEdge, From: 3, To: 4, W: 1}}},
	} {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]Serveable{
		"sssp": SSSP(sssp.NewInc(graph.New(6, true), 0), 0),
		"cc":   CC(cc.NewInc(graph.New(6, true))),
	}
	_, err = rec.Replay(targets, nil)
	if err == nil || !strings.Contains(err.Error(), "segment 1") || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), `"cc"`) {
		t.Errorf("err = %v, want one naming segment 1, record 2 and its target cc", err)
	}
	for name, m := range targets {
		if g := m.Graph(); !g.HasEdge(1, 2) || g.HasEdge(0, 1) || g.HasEdge(3, 4) {
			t.Errorf("%s holds edges 1-2 %v, 0-1 %v, 3-4 %v; want the first record only", name, g.HasEdge(1, 2), g.HasEdge(0, 1), g.HasEdge(3, 4))
		}
	}

	mixed := map[string]Serveable{
		"sssp": SSSP(sssp.NewInc(graph.New(6, true), 0), 0),
		"cc":   CC(cc.NewInc(graph.New(6, false))),
	}
	if _, err := rec.Replay(mixed, nil); err == nil || !strings.Contains(err.Error(), "directed") {
		t.Errorf("replay into a directed and an undirected graph: err = %v, want a refusal", err)
	}
	for name, m := range mixed {
		if m.Graph().NumEdges() != 0 {
			t.Errorf("%s applied records of a refused replay", name)
		}
	}
}
