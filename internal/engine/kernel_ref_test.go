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
// reduction of acyclic inner/semi join graphs leaves exactly the rows and
// aggregates the fixpoint converges to, on every SSB, TPC-H and TPC-DS
// template. The fixpoint runs the same query with one join edge repeated:
// a second edge on one alias pair changes no answer but sends the query
// down the fixpoint.
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
		compared := 0
		for _, q := range bench.Workload.Queries {
			if len(q.Joins) == 0 {
				continue
			}
			compared++
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
		if compared == 0 {
			t.Errorf("%s: workload has no join queries", bench.Name)
		}
	}
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
