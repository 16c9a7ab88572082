package fixpoint

import "testing"

func TestFifoOrder(t *testing.T) {
	f := newFifo(5)
	f.AddOrAdjust(3)
	f.AddOrAdjust(1)
	f.AddOrAdjust(3) // duplicate ignored
	f.AddOrAdjust(4)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	want := []Var{3, 1, 4}
	for _, w := range want {
		x, ok := f.Pop()
		if !ok || x != w {
			t.Fatalf("popped %d, want %d", x, w)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	// Re-adding after pop works.
	f.AddOrAdjust(1)
	if x, ok := f.Pop(); !ok || x != 1 {
		t.Fatal("re-add after pop failed")
	}
}
