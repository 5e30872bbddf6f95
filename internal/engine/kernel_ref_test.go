// Package engine_test holds the black-box kernel identity tests: they pin
// Execute (vectorized kernels) to ExecuteReference (retained scalar path)
// over full SSB and TPC-H benchmark workloads, which requires importing the
// experiments harness — hence the external test package, avoiding the
// import cycle engine → experiments → engine.
package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"mto/internal/engine"
	"mto/internal/experiments"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

func identityScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.SF = 0.005
	s.PerTemplate = 2
	return s
}

func identityOptions() map[string]engine.Options {
	withDips := engine.CloudDWOptions()
	withDips.DiPs = true
	return map[string]engine.Options{
		"default":      engine.DefaultOptions(),
		"cloudDW":      engine.CloudDWOptions(),
		"cloudDW+diPs": withDips,
	}
}

// TestKernelIdentityOnBenchmarks asserts, per query, that the vectorized
// kernels return a Result byte-identical to the scalar reference path —
// same PerTable metrics, same SurvivingRows, bit-identical simulated
// Seconds — across the SSB, TPC-H and TPC-DS workloads under every engine
// option set the experiments use.
func TestKernelIdentityOnBenchmarks(t *testing.T) {
	s := identityScale()
	for _, bench := range []*experiments.Bench{
		experiments.SSBBench(s), experiments.TPCHBench(s), experiments.TPCDSBench(s),
	} {
		d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range identityOptions() {
			e := engine.New(d.Store, d.Design, bench.Dataset, opts)
			for _, q := range bench.Workload.Queries {
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("%s/%s/%s: kernel: %v", bench.Name, name, q.ID, err)
				}
				want, err := e.ExecuteReference(q)
				if err != nil {
					t.Fatalf("%s/%s/%s: reference: %v", bench.Name, name, q.ID, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: kernel diverges from reference:\n got %+v\nwant %+v",
						bench.Name, name, q.ID, got, want)
				}
			}
		}
	}
}

// TestScheduleMatchesFixpointOnBenchmarks asserts that the two-sweep
// reduction — leaf anti edges stepped before the sweeps and leaf outer
// edges after them included — leaves exactly the rows and aggregates the
// fixpoint converges to, on every SSB, TPC-H and TPC-DS template. The
// fixpoint runs the same query with one join edge repeated: a second edge
// on one alias pair changes no answer but sends the query down the
// fixpoint. A template with an anti or outer edge also runs with each
// such edge's preserved side cut to its join keys below the middle row's,
// so the one-sided steps have rows to remove.
func TestScheduleMatchesFixpointOnBenchmarks(t *testing.T) {
	s := identityScale()
	for _, bench := range []*experiments.Bench{
		experiments.SSBBench(s), experiments.TPCHBench(s), experiments.TPCDSBench(s),
	} {
		d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(d.Store, d.Design, bench.Dataset, engine.DefaultOptions())
		compared, oneSided := 0, 0
		for _, q := range bench.Workload.Queries {
			if len(q.Joins) == 0 {
				continue
			}
			compared++
			queries := []*workload.Query{q}
			if cut := cutPreservedSides(bench.Dataset, q); cut != nil {
				oneSided++
				queries = append(queries, cut)
			}
			for _, q := range queries {
				fix := *q
				fix.Joins = append(append([]workload.Join(nil), q.Joins...), q.Joins[0])
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("%s/%s: %v", bench.Name, q.ID, err)
				}
				want, err := e.Execute(&fix)
				if err != nil {
					t.Fatalf("%s/%s (fixpoint): %v", bench.Name, q.ID, err)
				}
				if !reflect.DeepEqual(got.SurvivingRows, want.SurvivingRows) ||
					!reflect.DeepEqual(got.Aggregates, want.Aggregates) {
					t.Errorf("%s/%s: reduction diverges from the fixpoint:\n got %v %v\nwant %v %v",
						bench.Name, q.ID, got.SurvivingRows, got.Aggregates, want.SurvivingRows, want.Aggregates)
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: workload has no join queries", bench.Name)
		}
		if bench.Name == "TPC-H" && oneSided == 0 {
			t.Errorf("%s: workload has no anti or outer joins", bench.Name)
		}
	}
}

// cutPreservedSides returns q with a filter on the preserved side of each
// anti and outer edge keeping the join keys below the middle row's, or nil
// when q has no such edge with an int key.
func cutPreservedSides(ds *relation.Dataset, q *workload.Query) *workload.Query {
	cut := *q
	cut.ID = q.ID + "/cut"
	cut.Filters = map[string]predicate.Predicate{}
	for alias, p := range q.Filters {
		cut.Filters[alias] = p
	}
	n := 0
	for _, j := range q.Joins {
		alias, col := j.Left, j.LeftColumn
		switch j.Type {
		case workload.LeftAntiSemiJoin, workload.LeftOuterJoin:
		case workload.RightAntiSemiJoin, workload.RightOuterJoin:
			alias, col = j.Right, j.RightColumn
		default:
			continue
		}
		tbl := ds.Table(q.BaseTable(alias))
		ci, ok := tbl.Schema().ColumnIndex(col)
		if !ok || tbl.Schema().Column(ci).Type != value.KindInt || tbl.NumRows() == 0 {
			continue
		}
		cut.Filter(alias, predicate.NewComparison(col, predicate.Lt, value.Int(tbl.Ints(ci)[tbl.NumRows()/2])))
		n++
	}
	if n == 0 {
		return nil
	}
	return &cut
}

// TestGroupedIdentityOnBenchmarks pins the grouped-aggregate fold paths
// to each other over every rollup template in the three benchmark
// workloads: the kernel result (compressed dictionary-slot folds where
// the backend supports them) must be byte-identical to the scalar
// reference (sparse hash fold), and the group lists must come out in the
// canonical order — NULL group first, then ascending keys.
func TestGroupedIdentityOnBenchmarks(t *testing.T) {
	s := identityScale()
	for _, bench := range []*experiments.Bench{
		experiments.SSBBench(s), experiments.TPCHBench(s), experiments.TPCDSBench(s),
	} {
		d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())
		grouped := 0
		for _, q := range bench.Workload.Queries {
			if q.GroupBy.IsZero() {
				continue
			}
			grouped++
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s/%s: kernel: %v", bench.Name, q.ID, err)
			}
			want, err := e.ExecuteReference(q)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", bench.Name, q.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: grouped kernel diverges from reference:\n got %+v\nwant %+v",
					bench.Name, q.ID, got, want)
			}
			for _, av := range got.Aggregates {
				if av.GroupBy.IsZero() {
					t.Errorf("%s/%s: %s lost its GroupBy", bench.Name, q.ID, av.Spec)
				}
				for i := 1; i < len(av.Groups); i++ {
					if av.Groups[i-1].Key.Compare(av.Groups[i].Key) >= 0 {
						t.Errorf("%s/%s: %s group keys out of order: %s before %s",
							bench.Name, q.ID, av.Spec, av.Groups[i-1].Key, av.Groups[i].Key)
					}
				}
			}
		}
		if grouped == 0 {
			t.Errorf("%s: workload has no grouped queries", bench.Name)
		}
	}
}

// TestKernelIdentityUnderParallelReplay asserts whole-workload identity
// through RunWorkload: kernel and reference replays, sequential and
// parallel, all fold to the same WorkloadResult (including the
// floating-point Seconds totals). Run under -race this doubles as the
// concurrency-safety check for the engine's dictionary caches.
func TestKernelIdentityUnderParallelReplay(t *testing.T) {
	s := identityScale()
	bench := experiments.SSBBench(s)
	d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())

	base, err := engine.RunWorkload(e, bench.Workload.Queries,
		engine.RunOptions{Parallelism: 1, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		for _, ref := range []bool{false, true} {
			name := fmt.Sprintf("parallel=%d reference=%v", par, ref)
			wr, err := engine.RunWorkload(e, bench.Workload.Queries,
				engine.RunOptions{Parallelism: par, Reference: ref})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(wr, base) {
				t.Errorf("%s: workload result diverges from sequential reference", name)
			}
		}
	}
}
