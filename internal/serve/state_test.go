package serve

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// persisted is m's PersistState bytes.
func persisted(t testing.TB, m Serveable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.PersistState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateRoundTrip: equal state gives equal bytes. On a drawn graph
// (directed too, for the classes that take one) a class applies a few
// batches and persists; a fresh maintainer on the same graph restores
// those bytes and persists them again unchanged, and one more batch gives
// both the same view.
func TestStateRoundTrip(t *testing.T) {
	for _, c := range Classes {
		t.Run(c.Name, func(t *testing.T) {
			prop := func(seed int64, directed bool) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 6 + rng.Intn(60)
				g := gen.ErdosRenyi(rng, n, rng.Intn(2*n), directed && c.Name != "lcc" && c.Name != "bc")
				for v := range n {
					g.SetLabel(graph.NodeID(v), graph.Label('a'+rng.Intn(3)))
				}
				a := opsBatchRun(c.Name, g)
				for range 1 + rng.Intn(4) {
					applyAlone(a, gen.RandomUpdates(rng, g, 1+rng.Intn(8), 0.5))
				}
				first := persisted(t, a)
				b := opsBatchRun(c.Name, g)
				if err := b.RestoreState(bytes.NewReader(first)); err != nil {
					t.Errorf("seed %d: restore: %v", seed, err)
					return false
				}
				if again := persisted(t, b); !bytes.Equal(again, first) {
					t.Errorf("seed %d: persisted %d bytes, restored and persisted %d different ones", seed, len(first), len(again))
					return false
				}
				batch := gen.RandomUpdates(rng, g, 1+rng.Intn(8), 0.5)
				g.Advance(batch) // a and b share g
				a.Apply(batch)
				b.Apply(batch)
				return snapshotEqual(a.Snapshot(), b.Snapshot())
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStateCodecRefuses: the decoder takes only what appendState writes.
func TestStateCodecRefuses(t *testing.T) {
	cc := stateVecs("cc")
	st := &classState{Labels: []int64{0, 0, 2}, TS: []int64{1, 2, 3}, Clock: 7}
	good := appendState(nil, cc, st)
	if err := decodeState(good, cc, &classState{}); err != nil {
		t.Fatal(err)
	}
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	notIt := "not the encoding of vectors [Labels TS Clock]"
	big := appendState(nil, []string{"Tri"}, &classState{Tri: []int64{math.MaxInt32 + 1}})
	big = bytes.Replace(big, []byte("Tri\x01"), []byte("Deg\x02"), 1)
	for _, tc := range []struct {
		name  string
		data  []byte
		names []string
		want  string
	}{
		{"unknown", cat(good, []byte{5, 'L', 'a', 'b', 'e', 'l', 1, 0}), cc, `unknown state vector "Label"`},
		{"missing", appendState(nil, cc[:2], st), cc, notIt},
		{"repeated", cat(good, appendState(nil, cc[:1], st)), cc, notIt},
		{"out of order", appendState(nil, []string{"TS", "Labels", "Clock"}, st), cc, notIt},
		{"wrongly kinded", bytes.Replace(good, []byte("Labels\x01"), []byte("Labels\x02"), 1), cc, notIt},
		{"a clock of two", cat(appendState(nil, cc[:2], st), []byte{5, 'C', 'l', 'o', 'c', 'k', 1, 2, 14, 14}), cc, notIt},
		{"int32 out of range", big, []string{"Deg"}, "not the encoding of vectors [Deg]"},
		{"padding bits", []byte{1, 'R', 3, 3, 0xff}, []string{"R"}, "not the encoding of vectors [R]"},
		{"overlong varint", []byte{4, 'D', 'i', 's', 't', 1, 1, 0x80, 0x00}, []string{"Dist"}, "not the encoding of vectors [Dist]"},
		{"too long for its bytes", []byte{4, 'D', 'i', 's', 't', 1, 0xff, 0xff, 0x03, 0}, []string{"Dist"}, "Dist truncated"},
		{"a name past the end", []byte{9, 'D'}, []string{"Dist"}, "truncated"},
		{"trailing bytes", cat(good, []byte{0, 0}), cc, "unknown state vector"},
	} {
		if err := decodeState(tc.data, tc.names, &classState{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzStateCodec: decoding any bytes as any class's state errors or reads
// vectors that re-encode to exactly those bytes — never a panic, and no
// vector longer than its bytes could hold. Seeds: each class's real state,
// and the field-width extremes — Infinity distances, negative and MaxInt64
// timestamps and clocks, int32 bounds in every int32 vector, and bool
// vectors of 0, 1, 7, 8 and 9 flags.
func FuzzStateCodec(f *testing.F) {
	algos := opsAlgos()
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyi(rng, 12, 20, false)
	for v := range 12 {
		g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
	}
	for i, c := range Classes {
		m := opsBatchRun(c.Name, g.Clone())
		applyAlone(m, gen.RandomUpdates(rng, m.Graph(), 4, 0.5))
		f.Add(uint8(i), persisted(f, m))
	}
	i32 := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	ids := []graph.NodeID{math.MinInt32, -1, 0, 1, math.MaxInt32}
	i64 := []int64{math.MinInt64, -1, 0, graph.Infinity, math.MaxInt64}
	add := func(algo string, st classState) {
		f.Add(uint8(slices.Index(algos, algo)), appendState(nil, stateVecs(algo), &st))
	}
	add("sssp", classState{Dist: []int64{0, graph.Infinity, 3}})
	for _, clock := range []int64{math.MinInt64, -1, math.MaxInt64} {
		add("cc", classState{Labels: i64, TS: i64, Clock: clock})
	}
	add("dfs", classState{First: i32, Last: i32, Parent: ids})
	add("lcc", classState{Deg: i32, Tri: i64})
	for _, n := range []int{0, 1, 7, 8, 9} {
		flags := make([]bool, n)
		for k := range flags {
			flags[k] = k%3 != 1
		}
		add("sim", classState{R: flags, Cnt: i32[:min(n, 5)], TS: i64[:min(n, 5)], Clock: math.MaxInt64})
		add("bc", classState{Articulation: flags, Block: ids, Num: i32})
	}
	f.Fuzz(func(t *testing.T, class uint8, data []byte) {
		names := stateVecs(algos[int(class)%len(algos)])
		var st classState
		if decodeState(data, names, &st) != nil {
			return
		}
		ints := len(st.Dist) + len(st.Labels) + len(st.TS) + len(st.Tri) + len(st.Cnt) + len(st.First) +
			len(st.Last) + len(st.Deg) + len(st.Num) + len(st.Parent) + len(st.Block)
		if ints > len(data) || len(st.R)+len(st.Articulation) > 8*len(data) {
			t.Fatalf("decoded %d entries and %d flags from %d bytes", ints, len(st.R)+len(st.Articulation), len(data))
		}
		if enc := appendState(nil, names, &st); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", st, enc, data)
		}
	})
}

// BenchmarkPersistState and BenchmarkRestoreState time each class's state
// codec on the burst workload's graph after a few of its batches.
func BenchmarkPersistState(b *testing.B) {
	for _, c := range Classes {
		m := burstClass(c.Name)
		b.Run(c.Name, func(b *testing.B) {
			var buf bytes.Buffer
			for range b.N {
				buf.Reset()
				if err := m.PersistState(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkRestoreState(b *testing.B) {
	for _, c := range Classes {
		m := burstClass(c.Name)
		blob := persisted(b, m)
		b.Run(c.Name, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for range b.N {
				if err := m.RestoreState(bytes.NewReader(blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// burstClass builds a class on the burst graph, labelled a, b, c by node
// id, and applies three of the burst stream's batches.
func burstClass(algo string) Serveable {
	g := gen.BurstGraph()
	for v := range g.NumNodes() {
		g.SetLabel(graph.NodeID(v), graph.Label('a'+v%3))
	}
	m := opsBatchRun(algo, g)
	s := gen.NewBurstStream(1, g)
	for range 3 {
		applyAlone(m, s.Next(gen.BurstBatch))
	}
	return m
}
