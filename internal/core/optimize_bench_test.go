package core

import (
	"testing"

	"mto/internal/datagen"
)

// BenchmarkOptimize measures end-to-end layout learning (sampling, induced
// predicate evaluation, per-table qd-tree builds) on a small SSB instance —
// the offline path mtobench pays before every replay.
func BenchmarkOptimize(b *testing.B) {
	ds := datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.005, Seed: 1})
	w := datagen.SSBWorkload(2)
	opts := Options{
		BlockSize:     500,
		SampleRate:    0.25,
		JoinInduction: true,
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := Optimize(ds, w, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.BuildDesign(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeTPCH measures Optimize alone on TPC-H SF 0.05 with 22
// templates × 8 training queries and the options the system benchmark
// deploys with: 1000-row blocks, a 0.25 sample, join induction, and the
// TPC-H sort keys inside leaves. Candidate routing during the qd-tree
// builds is most of its time.
func BenchmarkOptimizeTPCH(b *testing.B) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.05, Seed: 1})
	w := datagen.TPCHWorkload(8, 2)
	opts := Options{
		BlockSize:     1000,
		SampleRate:    0.25,
		JoinInduction: true,
		LeafOrderKeys: datagen.TPCHSortKeys(),
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(ds, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}
