package bitmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	b := New()
	if b.Cardinality() != 0 {
		t.Error("new bitmap should be empty")
	}
	if b.Contains(0) || b.Contains(1<<31) {
		t.Error("empty bitmap contains values")
	}
	b.Remove(42) // no-op
	if got := toSlice(b); len(got) != 0 {
		t.Errorf("empty bitmap visits %v", got)
	}
	var zero Bitmap
	if zero.Cardinality() != 0 {
		t.Error("zero Bitmap should be usable and empty")
	}
}

func TestAddContainsRemove(t *testing.T) {
	b := New()
	vals := []uint32{0, 1, 2, 65535, 65536, 65537, 1 << 20, 1<<32 - 1}
	for _, v := range vals {
		b.Add(v)
		b.Add(v) // idempotent
	}
	if got := b.Cardinality(); got != len(vals) {
		t.Fatalf("Cardinality = %d, want %d", got, len(vals))
	}
	for _, v := range vals {
		if !b.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	if b.Contains(3) || b.Contains(65538) {
		t.Error("contains value never added")
	}
	b.Remove(65536)
	if b.Contains(65536) || b.Cardinality() != len(vals)-1 {
		t.Error("Remove failed")
	}
	// Removing the last value of a chunk drops the container.
	b.Remove(1 << 20)
	if b.Contains(1 << 20) {
		t.Error("Remove of singleton chunk failed")
	}
}

func TestArrayToBitmapPromotion(t *testing.T) {
	b := New()
	for i := uint32(0); i < 2*arrayMaxCard; i++ {
		b.Add(i * 2) // non-contiguous, all in chunk 0 until 32768*2
	}
	if got := b.Cardinality(); got != 2*arrayMaxCard {
		t.Fatalf("Cardinality = %d", got)
	}
	for i := uint32(0); i < 2*arrayMaxCard; i++ {
		if !b.Contains(i * 2) {
			t.Fatalf("missing %d after promotion", i*2)
		}
		if b.Contains(i*2 + 1) {
			t.Fatalf("spurious %d after promotion", i*2+1)
		}
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	vals := []uint32{7, 3, 1 << 17, 65536, 9, 2}
	b := FromSlice(vals)
	var got []uint32
	b.ForEach(func(v uint32) bool {
		got = append(got, v)
		return true
	})
	want := append([]uint32(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
	n := 0
	b.ForEach(func(uint32) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := FromSlice([]uint32{5, 10, 1 << 18})
	c := a.Clone()
	if !sameSet(a, c) {
		t.Error("clone not equal")
	}
	c.Add(11)
	if sameSet(a, c) {
		t.Error("mutating clone affected equality")
	}
	if a.Contains(11) {
		t.Error("clone shares storage with original")
	}
	if sameSet(a, FromSlice([]uint32{5, 10, 99})) {
		t.Error("sameSet on same-cardinality different sets")
	}
}

func TestOptimizeRunsPreservesContents(t *testing.T) {
	b := New()
	addRange(b, 100, 5000) // dense run — should become a run container
	b.Add(70000)
	before := toSlice(b)
	b.Optimize()
	after := toSlice(b)
	if !equalSlices(before, after) {
		t.Fatal("Optimize changed contents")
	}
	if b.containers[0].kind != kindRun {
		t.Errorf("dense chunk kind = %d, want run", b.containers[0].kind)
	}
	// Run containers still answer membership and mutations correctly.
	if !b.Contains(4999) || b.Contains(5001) {
		t.Error("run membership wrong")
	}
	b.Add(6000)
	if !b.Contains(6000) {
		t.Error("Add after Optimize failed")
	}
	b2 := New()
	addRange(b2, 0, 4000)
	b2.Optimize()
	b2.Remove(2000)
	if b2.Contains(2000) || b2.Cardinality() != 4000 {
		t.Error("Remove on run container failed")
	}
	b2.Remove(999999) // absent from run: no-op
}

func TestOptimizeSparseStaysArray(t *testing.T) {
	b := FromSlice([]uint32{1, 100, 10000})
	b.Optimize()
	if b.containers[0].kind != kindArray {
		t.Errorf("sparse chunk kind = %d, want array", b.containers[0].kind)
	}
}

func TestSizeBytes(t *testing.T) {
	sparse := FromSlice([]uint32{1, 2, 3})
	run := New()
	addRange(run, 0, 60000)
	run.Optimize()
	if sparse.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	if run.SizeBytes() >= 8*bitmapWords {
		t.Errorf("run container should compress a solid range: %d bytes", run.SizeBytes())
	}
	dense := New()
	for i := uint32(0); i < 60000; i += 2 {
		dense.Add(i)
	}
	dense.Optimize()
	if dense.SizeBytes() < 8*bitmapWords {
		t.Errorf("alternating bits should be a bitmap container: %d bytes", dense.SizeBytes())
	}
}

func TestRandomizedAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New()
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		v := uint32(rng.Intn(1 << 18))
		switch rng.Intn(3) {
		case 0, 1:
			b.Add(v)
			model[v] = true
		case 2:
			b.Remove(v)
			delete(model, v)
		}
	}
	if b.Cardinality() != len(model) {
		t.Fatalf("cardinality %d != model %d", b.Cardinality(), len(model))
	}
	for v := range model {
		if !b.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	b.Optimize()
	if b.Cardinality() != len(model) {
		t.Fatal("Optimize changed cardinality")
	}
	b.ForEach(func(v uint32) bool {
		if !model[v] {
			t.Fatalf("spurious %d", v)
		}
		return true
	})
}

// addRange adds every value in [lo, hi] one at a time.
func addRange(b *Bitmap, lo, hi uint32) {
	for v := lo; v <= hi; v++ {
		b.Add(v)
	}
}

// toSlice returns b's values in ascending order.
func toSlice(b *Bitmap) []uint32 {
	var out []uint32
	b.ForEach(func(v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// sameSet reports whether a and b hold exactly the same values.
func sameSet(a, b *Bitmap) bool { return equalSlices(toSlice(a), toSlice(b)) }

func equalSlices(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddManyMatchesAdd checks AddMany against per-value Add across input
// shapes that exercise every container transition: sparse arrays, dense
// bitmap promotion, run containers built by Optimize then extended, exact
// arrayMaxCard boundaries, duplicates, and unsorted cross-container input.
func TestAddManyMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]uint32{
		"empty":  nil,
		"single": {42},
		"sparse": {1, 70000, 1 << 20, 1<<32 - 1, 3, 70001},
		"dups":   {5, 5, 5, 65536, 65536, 5},
	}
	// Exactly arrayMaxCard distinct values in one chunk: must stay an array.
	boundary := make([]uint32, 0, arrayMaxCard)
	for i := 0; i < arrayMaxCard; i++ {
		boundary = append(boundary, uint32(i*3))
	}
	cases["array-boundary"] = boundary
	// One more than arrayMaxCard forces promotion to a bitmap container.
	cases["promote"] = append(append([]uint32{}, boundary...), uint32(arrayMaxCard*3))
	// Random unsorted values spread over a few chunks, with duplicates.
	random := make([]uint32, 20000)
	for i := range random {
		random[i] = uint32(rng.Intn(4 << 16))
	}
	cases["random"] = random

	for name, vals := range cases {
		for _, preset := range []string{"fresh", "array", "run", "bitmap"} {
			want, got := New(), New()
			switch preset {
			case "array":
				for i := 0; i < 100; i++ {
					want.Add(uint32(i * 7))
					got.Add(uint32(i * 7))
				}
			case "run":
				addRange(want, 10, 5000)
				addRange(got, 10, 5000)
				want.Optimize()
				got.Optimize()
			case "bitmap":
				for i := 0; i < 2*arrayMaxCard; i++ {
					want.Add(uint32(i * 2))
					got.Add(uint32(i * 2))
				}
			}
			for _, v := range vals {
				want.Add(v)
			}
			got.AddMany(vals)
			if got.Cardinality() != want.Cardinality() {
				t.Fatalf("%s/%s: card %d, want %d", name, preset, got.Cardinality(), want.Cardinality())
			}
			if !sameSet(got, want) {
				t.Fatalf("%s/%s: contents differ from per-value Add", name, preset)
			}
			// After Optimize the representation is determined by content
			// alone, so the size estimates must agree too.
			want.Optimize()
			got.Optimize()
			if g, w := got.SizeBytes(), want.SizeBytes(); g != w {
				t.Errorf("%s/%s: optimized SizeBytes %d, want %d", name, preset, g, w)
			}
		}
	}
}

func TestAddManyQuick(t *testing.T) {
	f := func(vals []uint32) bool {
		want, got := New(), New()
		for _, v := range vals {
			want.Add(v)
		}
		got.AddMany(vals)
		return sameSet(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
