package dynconn

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestLabelsSimple(t *testing.T) {
	d := New(5)
	d.Insert(1, 3)
	d.Insert(3, 4)
	got := d.Labels()
	want := []int32{0, 1, 2, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
}

func TestLabelsMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 50
		d := New(n)
		o := newOracle(n)
		for op := 0; op < 800; op++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if rng.Intn(2) == 0 {
				d.Insert(u, v)
				o.insert(u, v)
			} else {
				d.Delete(u, v)
				o.delete(u, v)
			}
		}
		lab := d.Labels()
		comp := o.components()
		// Same partition, and each label is the minimum member id.
		min := map[int]int32{}
		for v := 0; v < n; v++ {
			if m, ok := min[comp[v]]; !ok || int32(v) < m {
				min[comp[v]] = int32(v)
			}
		}
		for v := 0; v < n; v++ {
			if lab[v] != min[comp[v]] {
				t.Fatalf("seed %d: label[%d] = %d, want %d", seed, v, lab[v], min[comp[v]])
			}
		}
	}
}

func TestHasEdgeAndNumVertices(t *testing.T) {
	d := New(3)
	if d.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", d.NumVertices())
	}
	d.Insert(0, 1)
	if !d.HasEdge(1, 0) || d.HasEdge(1, 2) {
		t.Fatal("HasEdge wrong")
	}
	if d.Delete(1, 2) {
		t.Fatal("deleting absent edge succeeded")
	}
}

func TestIsolatedVerticesJoinAfterOperations(t *testing.T) {
	d := New(5)
	d.Insert(0, 1)
	d.Delete(0, 1)
	d.Insert(0, 1) // exercise re-insert after full delete
	d.Insert(3, 4) // 3 and 4 were isolated until now
	d.Insert(1, 3)
	if !d.Connected(0, 4) {
		t.Fatal("connectivity through the joined vertices failed")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := d.Labels(); got[4] != 0 || got[2] != 2 {
		t.Fatalf("labels after the joins: %v", got)
	}
}

func TestHeavyChurnSingleEdge(t *testing.T) {
	// Insert/delete the same edge many times: exercises level bookkeeping
	// reuse and tree/non-tree transitions.
	d := New(3)
	d.Insert(0, 1)
	d.Insert(1, 2)
	d.Insert(2, 0)
	for i := 0; i < 200; i++ {
		if !d.Delete(0, 1) {
			t.Fatal("delete failed")
		}
		if !d.Connected(0, 1) {
			t.Fatal("triangle lost connectivity")
		}
		if !d.Insert(0, 1) {
			t.Fatal("insert failed")
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
