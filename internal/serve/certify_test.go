package serve

import (
	"bytes"
	"slices"
	"testing"

	"incgraph/internal/cc"
	"incgraph/internal/graph"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
	"incgraph/internal/wal"
)

// TestStartRepairsWrongRestoredState drives the divergent branch of a
// start's verification: a checkpoint whose sssp distances have one node 1
// too low, or whose cc state has two stamps swapped with every label
// right — which a comparison of answers cannot see. The certificate must
// catch each, Diverged name the class, and the class be rebuilt by its
// batch run: its view the recompute's and its state, persisted again,
// byte for byte a fresh batch run's. The class left alone keeps its
// restored state.
func TestStartRepairsWrongRestoredState(t *testing.T) {
	algos := []string{"cc", "sssp"}
	stream := makeStream(7, opsNodes, 240)
	// write leaves a directory holding a checkpoint after the stream and
	// no WAL tail, so the start verifies exactly the restored state.
	write := func() string {
		dir := t.TempDir()
		svc := NewService()
		if _, _, err := Start(svc, dir, algos, opsBuild, func() (*graph.Graph, error) { return opsBase(), nil }, Options{}, false, true); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(svc, dir, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(stream); i += 40 {
			if err := d.Ingest(nil, "", stream[i:i+40], trace.TraceID{}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		svc.Close()
		d.Close()
		return dir
	}
	for _, tc := range []struct {
		algo string
		edit func(g *graph.Graph, st *classState)
	}{
		{"sssp", func(_ *graph.Graph, st *classState) {
			for v, d := range st.Dist {
				if d > 0 && d < graph.Infinity {
					st.Dist[v]--
					return
				}
			}
			t.Fatal("no finite distance to lower")
		}},
		{"cc", func(g *graph.Graph, st *classState) {
			// The first two neighbours whose swapped stamps the certificate
			// rejects: the later one's label then rests on no neighbour
			// stamped before it.
			for u := range st.TS {
				nbrs, _, _, _ := g.Flat().OutSpans(graph.NodeID(u))
				for _, to := range nbrs {
					ts := slices.Clone(st.TS)
					ts[u], ts[to] = ts[to], ts[u]
					m := cc.Blank(g)
					if err := m.RestoreState(st.Labels, ts, st.Clock); err != nil {
						t.Fatal(err)
					}
					if m.Certify() != nil {
						st.TS = ts
						return
					}
				}
			}
			t.Fatal("no two stamps to swap")
		}},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			dir := write()
			before := map[string][]byte{}
			targets, _ := startClosed(t, dir, nil, opsBuild, algos...)
			for algo, m := range targets {
				before[algo] = persisted(t, m)
			}
			corrupt(t, dir, tc.algo, tc.edit)

			svc := NewService()
			defer svc.Close()
			_, st, err := Start(svc, dir, algos, opsBuild, nil, Options{}, false, true)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st.Diverged, []string{tc.algo}) {
				t.Fatalf("diverged %v, want [%s]", st.Diverged, tc.algo)
			}
			for i, algo := range algos {
				c := st.Verify[i]
				if c.By != "certificate" || (c.Err != nil) != (algo == tc.algo) || c.Diverged != (algo == tc.algo) {
					t.Errorf("%s verified by %s, diverged %v, certificate says %v", algo, c.By, c.Diverged, c.Err)
				}
				var g *graph.Graph
				var state []byte
				svc.Get(algo).WithState(func(m Serveable) error {
					g, state = m.Graph().Clone(), persisted(t, m)
					return nil
				})
				fresh := opsBatchRun(algo, g)
				if !snapshotEqual(svc.Get(algo).View().Data, fresh.Snapshot()) {
					t.Errorf("%s: the served view is not the recompute's", algo)
				}
				switch {
				case algo == tc.algo && !bytes.Equal(state, persisted(t, fresh)):
					t.Errorf("%s: the state persisted again is not a fresh batch run's", algo)
				case algo != tc.algo && !bytes.Equal(state, before[algo]):
					t.Errorf("%s: a class whose certificate holds lost its restored state", algo)
				}
			}
		})
	}
}

// TestBlankRestoreIsNewIncRestore: a class restored into its Blank
// maintainer, with no batch run, is the class built by its batch run with
// the same state restored: equal state bytes, and after the same batches
// equal views, written lists and ledgers.
func TestBlankRestoreIsNewIncRestore(t *testing.T) {
	stream := makeStream(3, opsNodes, 320)
	for _, c := range Classes {
		t.Run(c.Name, func(t *testing.T) {
			// The state to restore: the class after half the stream.
			g := opsBase()
			ref := opsBatchRun(c.Name, g)
			for i := 0; i < 160; i += 40 {
				applyAlone(ref, stream[i:i+40].Net(false))
			}
			state := persisted(t, ref)
			restore := func(m Serveable) Serveable {
				if err := m.RestoreState(bytes.NewReader(state)); err != nil {
					t.Fatal(err)
				}
				return m
			}
			blank, err := opsBuild(c.Name, g.Clone())
			if err != nil {
				t.Fatal(err)
			}
			blank, built := restore(blank), restore(opsBatchRun(c.Name, g.Clone()))
			if !bytes.Equal(persisted(t, blank), persisted(t, built)) {
				t.Fatal("restored states persist differently")
			}
			for i := 160; i < len(stream); i += 40 {
				b := stream[i : i+40].Net(false)
				rb, rn := applyAlone(blank, b), applyAlone(built, b)
				if rb.Ledger != rn.Ledger || rb.Affected != rn.Affected {
					t.Errorf("batch %d: ledgers %+v and %+v", i/40, rb.Ledger, rn.Ledger)
				}
				wb, wn := blank.(interface{ Written() []int32 }).Written(), built.(interface{ Written() []int32 }).Written()
				if !slices.Equal(wb, wn) {
					t.Errorf("batch %d: written %v and %v", i/40, wb, wn)
				}
				if !snapshotEqual(blank.Snapshot(), built.Snapshot()) {
					t.Errorf("batch %d: the views differ", i/40)
				}
			}
		})
	}
}

// corrupt rewrites class algo's state in dir's checkpoint through edit,
// which gets the cut's graph too.
func corrupt(t *testing.T, dir, algo string, edit func(g *graph.Graph, st *classState)) {
	t.Helper()
	ck, err := wal.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadBinary(bytes.NewReader(ck.Graph))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ck.Algos {
		if a.Name == algo {
			var st classState
			if err := decodeState(a.State, stateVecs(algo), &st); err != nil {
				t.Fatal(err)
			}
			edit(g, &st)
			ck.Algos[i].State = appendState(nil, stateVecs(algo), &st)
		}
	}
	if _, err := wal.WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
}

// everDiverging is a class whose every recompute changes its answer.
type everDiverging struct {
	Serveable
	answer *int
}

func (d everDiverging) Snapshot() any { return *d.answer }
func (d everDiverging) Recompute()    { *d.answer++ }

// TestVerifyRecoveredNameOrder: verification walks the classes in name
// order, so the divergent classes it reports and its recovery_verify
// spans come out in that order, whatever order the map ranges in.
func TestVerifyRecoveredNameOrder(t *testing.T) {
	names := []string{"bc", "cc", "dfs", "lcc", "sim", "sssp"}
	for run := 0; run < 20; run++ {
		targets := map[string]Serveable{}
		for _, name := range names {
			targets[name] = everDiverging{answer: new(int)}
		}
		rec := trace.NewRecorder(64)
		if got := VerifyRecovered(targets, rec); !slices.Equal(got, names) {
			t.Fatalf("diverged %v, want %v", got, names)
		}
		var spans int
		for _, ev := range rec.Events() {
			if ev.Name == "recovery_verify" {
				spans++
			}
		}
		if spans != len(names) {
			t.Fatalf("%d recovery_verify spans, want %d", spans, len(names))
		}
	}
}

// countingClass is a class whose recomputes are counted; it forwards the
// certificate of the class it wraps.
type countingClass struct {
	Serveable
	recomputes *int
}

func (c countingClass) Recompute()                     { *c.recomputes++; c.Serveable.Recompute() }
func (c countingClass) Certify() (has bool, err error) { return c.Serveable.(certifier).Certify() }

// TestHostVerifyByCertificate: a hosted class with a certificate (sssp,
// cc) is verified by it, as a recovered one is: while the certificates
// hold, Host.Verify recomputes nothing and republishes the view at its
// epoch. A distance lowered by 1 in place fails sssp's certificate: Verify
// reports the divergence and repairs it by one recompute, to the batch
// answer.
func TestHostVerifyByCertificate(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	g, mirror := opsBase(), opsBase()
	recomputes := map[string]*int{}
	for _, algo := range []string{"sssp", "cc"} {
		recomputes[algo] = new(int)
		if _, err := svc.Host(countingClass{opsBatchRun(algo, g), recomputes[algo]}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	b := makeStream(3, opsNodes, 120)
	if err := submitWait(svc, b); err != nil {
		t.Fatal(err)
	}
	mirror.Apply(b)
	for _, h := range svc.Hosts() {
		before := h.View()
		if diverged, err := h.Verify(); diverged || err != nil {
			t.Fatalf("%s: Verify: diverged %v, %v", h.Algo(), diverged, err)
		}
		if n := *recomputes[h.Algo()]; n != 0 {
			t.Errorf("%s: Verify recomputed %d times; its certificate holds", h.Algo(), n)
		}
		if v := h.View(); v.Epoch != before.Epoch || v.Batches != before.Batches || !snapshotEqual(v.Data, before.Data) {
			t.Errorf("%s: Verify moved the view from epoch %d to %d, or changed it", h.Algo(), before.Epoch, v.Epoch)
		}
	}
	h := svc.Get("sssp")
	h.WithState(func(m Serveable) error {
		dist := m.(countingClass).Serveable.(*adapter[*sssp.Inc, SSSPView]).m.Dist()
		for v, d := range dist {
			if d > 0 && d < graph.Infinity {
				dist[v]--
				return nil
			}
		}
		t.Fatal("no finite distance to lower")
		return nil
	})
	if diverged, err := h.Verify(); !diverged || err != nil {
		t.Fatalf("Verify of a lowered distance: diverged %v, %v", diverged, err)
	}
	if n := *recomputes["sssp"]; n != 1 {
		t.Errorf("the lowered distance was repaired by %d recomputes, want 1", n)
	}
	if !snapshotEqual(h.View().Data, opsBatchRun("sssp", mirror).Snapshot()) {
		t.Error("the repaired view differs from the batch answer")
	}
}
