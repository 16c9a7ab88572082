package serve

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"incgraph/internal/bc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// TestBCRestoreOlderCheckpoint: a checkpoint written before the edge
// partition became per-node arrays carries the flags and a map keyed by
// edge. It must still restore — to the structure of the graph it was taken
// of — and the maintainer must repair on from there; the shape written now
// must round-trip without a recompute.
func TestBCRestoreOlderCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi(rng, 80, 90, false)
	want := bc.Run(g)

	// The envelope as the older adapter encoded it.
	older := struct {
		Articulation []bool
		EdgeComp     map[[2]graph.NodeID]int32
	}{Articulation: want.Articulation, EdgeComp: map[[2]graph.NodeID]int32{}}
	g.Edges(func(u, v graph.NodeID, _ int64) {
		older.EdgeComp[[2]graph.NodeID{min(u, v), max(u, v)}] = want.EdgeComp(u, v)
	})
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(older); err != nil {
		t.Fatal(err)
	}

	check := func(when string, s *bcServeable) {
		t.Helper()
		g := s.inc.Graph()
		if !s.inc.Result().Equivalent(bc.Run(g), g) {
			t.Fatalf("%s: structure differs from Run", when)
		}
		if !snapshotEqual(s.Snapshot(), BC(bc.NewInc(g.Clone())).Snapshot()) {
			t.Fatalf("%s: published view differs from a fresh maintainer's", when)
		}
	}
	s := BC(bc.NewInc(g.Clone())).(*bcServeable)
	s.Snapshot()
	if err := s.RestoreState(&blob); err != nil {
		t.Fatalf("restore of the older shape: %v", err)
	}
	check("after restoring the older shape", s)
	for round := 0; round < 5; round++ {
		s.Apply(gen.RandomUpdates(rng, s.Graph(), 12, 0.5))
		check("repairing after it", s)
	}

	blob.Reset()
	if err := s.PersistState(&blob); err != nil {
		t.Fatal(err)
	}
	r := BC(bc.NewInc(s.Graph().Clone())).(*bcServeable)
	built := r.inc
	if err := r.RestoreState(&blob); err != nil {
		t.Fatal(err)
	}
	if r.inc != built {
		t.Fatal("restoring the current shape rebuilt the maintainer")
	}
	if got, want := r.inc.Result().NumComps(), s.inc.Result().NumComps(); got != want {
		t.Fatalf("restored %d blocks, persisted %d", got, want)
	}
	check("after a round trip", r)
	r.Apply(gen.RandomUpdates(rng, r.Graph(), 12, 0.5))
	check("repairing after a round trip", r)
}

// TestPubStateWritten: the list Snapshot hands Paged.Update is the
// maintainer's only when it describes the whole interval, and an apply
// that wrote nothing is "nothing written", never "unknown" — a maintainer
// whose repair changed nothing (BC on a graph without articulation
// points) leaves its list nil.
func TestPubStateWritten(t *testing.T) {
	list := []int32{4, 2}
	for _, c := range []struct {
		name    string
		prepare func(*pubState)
		given   []int32
		want    []int32 // nil: unknown
	}{
		{"no apply", func(*pubState) {}, list, []int32{}},
		{"one apply", func(p *pubState) { p.applied() }, list, list},
		{"one apply, nil list", func(p *pubState) { p.applied() }, nil, []int32{}},
		{"two applies", func(p *pubState) { p.applied(); p.applied() }, list, nil},
		{"unknown", func(p *pubState) { p.unknown() }, nil, nil},
		{"unknown then one apply", func(p *pubState) { p.unknown(); p.applied() }, list, nil},
	} {
		var p pubState
		c.prepare(&p)
		got := p.written(c.given)
		if (got == nil) != (c.want == nil) || len(got) != len(c.want) {
			t.Errorf("%s: written = %v (nil %v), want %v (nil %v)", c.name, got, got == nil, c.want, c.want == nil)
		}
		if again := p.written(list); again == nil || len(again) != 0 {
			t.Errorf("%s: a second Snapshot with no apply between gets %v, want nothing written", c.name, again)
		}
	}
}
