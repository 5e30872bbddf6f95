package bitmap

import "testing"

func TestDenseSetGetClear(t *testing.T) {
	d := NewDense(130) // crosses word boundaries, non-multiple of 64
	if len(d) != 3 {
		t.Fatalf("words = %d, want 3", len(d))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if d.Get(i) {
			t.Errorf("bit %d set in fresh bitset", i)
		}
		d.Set(i)
		if !d.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := d.Count(); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	d.Clear(64)
	if d.Get(64) || d.Count() != 7 {
		t.Errorf("Clear(64): get=%v count=%d", d.Get(64), d.Count())
	}
	// Clearing an unset bit is a no-op.
	d.Clear(64)
	if d.Count() != 7 {
		t.Errorf("double Clear changed count to %d", d.Count())
	}
}

func TestDenseCloneAndForEach(t *testing.T) {
	d := NewDense(100)
	set := []int{3, 64, 99}
	for _, i := range set {
		d.Set(i)
	}
	c := d.Clone()
	c.Clear(64)
	if !d.Get(64) {
		t.Error("Clone shares storage with original")
	}
	var got []int
	d.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(set) {
		t.Fatalf("ForEach visited %v, want %v", got, set)
	}
	for i := range set {
		if got[i] != set[i] {
			t.Errorf("ForEach order: got %v, want %v", got, set)
		}
	}
}
