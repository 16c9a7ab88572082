package graph

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func edgeSet(g *Graph) map[uint64]int64 {
	m := map[uint64]int64{}
	g.Edges(func(u, v NodeID, w int64) { m[pack(u, v)] = w })
	return m
}

func randomBatch(rng *rand.Rand, nodes, n int) Batch {
	b := make(Batch, 0, n)
	for i := 0; i < n; i++ {
		u := NodeID(rng.Intn(nodes))
		v := NodeID(rng.Intn(nodes))
		if rng.Intn(2) == 0 {
			b = append(b, Update{Kind: InsertEdge, From: u, To: v, W: int64(rng.Intn(50) + 1)})
		} else {
			b = append(b, Update{Kind: DeleteEdge, From: u, To: v})
		}
	}
	return b
}

func TestApplyAndRevert(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(15, seed%2 == 0)
		g.Apply(randomBatch(rng, 15, 60))
		before := edgeSet(g)
		applied := g.Apply(randomBatch(rng, 15, 40))
		g.Apply(applied.Inverse())
		after := edgeSet(g)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("seed %d: revert did not restore graph: before %v after %v", seed, before, after)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestApplySkipsNoops(t *testing.T) {
	g := New(3, true)
	applied := g.Apply(Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 1},
		{Kind: InsertEdge, From: 0, To: 1, W: 9}, // duplicate
		{Kind: DeleteEdge, From: 2, To: 0},       // absent
		{Kind: DeleteEdge, From: 0, To: 1},
		{Kind: DeleteEdge, From: 0, To: 1}, // double delete
	})
	if len(applied) != 2 {
		t.Fatalf("applied %d updates, want 2: %v", len(applied), applied)
	}
	if applied[1].W != 1 {
		t.Fatalf("delete did not record removed weight: %v", applied[1])
	}
}

func TestBatchNet(t *testing.T) {
	b := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 1},
		{Kind: DeleteEdge, From: 0, To: 1},
		{Kind: InsertEdge, From: 2, To: 3, W: 4},
		{Kind: InsertEdge, From: 0, To: 1, W: 7},
	}
	net := b.Net(true)
	// Pair (0,1) saw ins,del,ins: it may exist in G, so Net must emit a
	// delete followed by the final insert. Pair (2,3) is a lone insert.
	if len(net) != 3 {
		t.Fatalf("Net kept %d updates: %v", len(net), net)
	}
	if net[0].Kind != DeleteEdge || net[1].Kind != InsertEdge || net[1].W != 7 || net[2].From != 2 {
		t.Fatalf("Net wrong: %v", net)
	}
	// A pure churn pair on an unknown base collapses to one delete.
	churn := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 1},
		{Kind: DeleteEdge, From: 0, To: 1},
	}
	if got := churn.Net(true); len(got) != 1 || got[0].Kind != DeleteEdge {
		t.Fatalf("churn Net = %v", got)
	}
}

func TestBatchNetUndirectedOrientation(t *testing.T) {
	// Mixed orientations of the same undirected edge must collapse together.
	b := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 3},
		{Kind: DeleteEdge, From: 1, To: 0},
		{Kind: InsertEdge, From: 0, To: 1, W: 9},
	}
	g := New(2, false)
	g.InsertEdge(0, 1, 5)
	h := g.Clone()
	g.Apply(b)
	h.Apply(b.Net(false))
	if g.Weight(0, 1) != h.Weight(0, 1) {
		t.Fatalf("net weight %d, raw weight %d", h.Weight(0, 1), g.Weight(0, 1))
	}
}

// The net batch must produce the same graph as the raw batch.
func TestBatchNetEquivalent(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomBatch(rng, 10, 50)
		delta := randomBatch(rng, 10, 50)
		g1 := New(10, directed)
		g1.Apply(base)
		g2 := g1.Clone()
		g1.Apply(delta)
		g2.Apply(delta.Net(directed))
		return reflect.DeepEqual(edgeSet(g1), edgeSet(g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Batch
		n    int
		ok   bool
	}{
		{"empty", Batch{}, 5, true},
		{"in range", Batch{{Kind: InsertEdge, From: 0, To: 4, W: 1}}, 5, true},
		{"delete with recorded weight", Batch{{Kind: DeleteEdge, From: 1, To: 2, W: 9}}, 5, true},
		{"from out of range", Batch{{Kind: InsertEdge, From: 5, To: 0, W: 1}}, 5, false},
		{"to out of range", Batch{{Kind: InsertEdge, From: 0, To: 7, W: 1}}, 5, false},
		{"negative from", Batch{{Kind: InsertEdge, From: -1, To: 0, W: 1}}, 5, false},
		{"negative weight", Batch{{Kind: InsertEdge, From: 0, To: 1, W: -2}}, 5, false},
		{"negative delete weight", Batch{{Kind: DeleteEdge, From: 0, To: 1, W: -2}}, 5, false},
		{"largest weight", Batch{{Kind: InsertEdge, From: 0, To: 1, W: Infinity - 1}}, 5, true},
		{"weight at Infinity", Batch{{Kind: InsertEdge, From: 0, To: 1, W: Infinity}}, 5, false},
		{"weight that wraps d+W", Batch{{Kind: InsertEdge, From: 0, To: 1, W: math.MaxInt64}}, -1, false},
		{"delete weight at Infinity", Batch{{Kind: DeleteEdge, From: 0, To: 1, W: Infinity}}, 5, false},
		{"unknown bound skips range", Batch{{Kind: InsertEdge, From: 1000, To: 2000, W: 1}}, -1, true},
		{"unknown bound still checks sign", Batch{{Kind: InsertEdge, From: -1, To: 0, W: 1}}, -1, false},
		{"second update reported", Batch{
			{Kind: InsertEdge, From: 0, To: 1, W: 1},
			{Kind: DeleteEdge, From: 0, To: 99},
		}, 5, false},
	}
	for _, tc := range cases {
		err := tc.b.Validate(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%d) = %v, want ok=%v", tc.name, tc.n, err, tc.ok)
		}
	}
	// The error names the offending update index.
	err := Batch{
		{Kind: InsertEdge, From: 0, To: 1, W: 1},
		{Kind: InsertEdge, From: 0, To: 9, W: 1},
	}.Validate(5)
	if err == nil || !strings.Contains(err.Error(), "update 1") {
		t.Fatalf("want indexed error, got %v", err)
	}
}

func TestUpdateString(t *testing.T) {
	u := Update{Kind: InsertEdge, From: 1, To: 2, W: 3}
	if u.String() != "+(1,2,3)" {
		t.Fatalf("got %q", u.String())
	}
	d := Update{Kind: DeleteEdge, From: 4, To: 5, W: 0}
	if d.String() != "-(4,5,0)" {
		t.Fatalf("got %q", d.String())
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, 8, 30)
		return reflect.DeepEqual(b.Inverse().Inverse(), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
