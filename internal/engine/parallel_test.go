package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/block/blocktest"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// snowflakeDS builds dim1(id unique, attr) + dim2(id unique, grp) +
// fact(fid, did1, did2, v): a schema whose queries join the fact to both
// dimensions, exercising multi-edge runtime pruning.
func snowflakeDS(t testing.TB, dims, factRows int, seed int64) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	for _, name := range []string{"dim1", "dim2"} {
		attr := "attr"
		if name == "dim2" {
			attr = "grp"
		}
		d := relation.NewTable(relation.MustSchema(name,
			relation.Column{Name: "id", Type: value.KindInt, Unique: true},
			relation.Column{Name: attr, Type: value.KindInt},
		))
		for i := 0; i < dims; i++ {
			d.MustAppendRow(value.Int(int64(i)), value.Int(int64(i%7)))
		}
		ds.MustAddTable(d)
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did1", Type: value.KindInt},
		relation.Column{Name: "did2", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
	))
	for i := 0; i < factRows; i++ {
		fact.MustAppendRow(
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(dims))),
			value.Int(int64(rng.Intn(dims))),
			value.Int(int64(rng.Intn(1000))),
		)
	}
	ds.MustAddTable(fact)
	return ds
}

// snowflakeWorkload builds n multi-join queries with varying filters.
func snowflakeWorkload(n int) []*workload.Query {
	out := make([]*workload.Query, 0, n)
	for i := 0; i < n; i++ {
		q := workload.NewQuery(fmt.Sprintf("q%d", i),
			workload.TableRef{Table: "dim1"},
			workload.TableRef{Table: "dim2"},
			workload.TableRef{Table: "fact"},
		)
		q.AddJoin("dim1", "id", "fact", "did1")
		q.AddJoin("dim2", "id", "fact", "did2")
		q.Filter("dim1", predicate.NewComparison("attr", predicate.Eq, value.Int(int64(i%7))))
		q.Filter("dim2", predicate.NewComparison("grp", predicate.Lt, value.Int(int64(1+i%5))))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(int64(100+50*(i%10)))))
		out = append(out, q)
	}
	return out
}

func installSnowflake(t testing.TB, ds *relation.Dataset, blockSize int) (*colstore.Store, *layout.Design) {
	t.Helper()
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{
		"fact": "did1", "dim1": "id", "dim2": "id",
	}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return store, d
}

// parallelEngineOptions turns on every execution-time feature so the
// parallel run exercises the keyIdx/blockOf caches and diP pruning.
func parallelEngineOptions() Options {
	opts := CloudDWOptions()
	opts.DiPs = true
	opts.SecondaryIndexes = map[string]string{"fact": "did2"}
	return opts
}

// TestRunWorkloadMatchesSequential replays the same multi-join workload
// sequentially and at parallelism 8 (under -race this doubles as the
// engine's concurrency-safety test) and requires identical per-query
// results, aggregate Seconds, and Store.Stats() totals.
func TestRunWorkloadMatchesSequential(t *testing.T) {
	ds := snowflakeDS(t, 200, 20000, 11)
	queries := snowflakeWorkload(32)

	// Fresh store per run so the metering totals are comparable.
	seqStore, seqDesign := installSnowflake(t, ds, 500)
	seqBase := seqStore.Stats()
	seq, err := RunWorkload(New(seqStore, seqDesign, ds, parallelEngineOptions()),
		queries, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	parStore, parDesign := installSnowflake(t, ds, 500)
	parBase := parStore.Stats()
	par, err := RunWorkload(New(parStore, parDesign, ds, parallelEngineOptions()),
		queries, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Results) != len(queries) || len(par.Results) != len(queries) {
		t.Fatalf("result counts: seq=%d par=%d want %d", len(seq.Results), len(par.Results), len(queries))
	}
	for i, q := range queries {
		s, p := seq.Results[i], par.Results[i]
		if s.Query != q.ID || p.Query != q.ID {
			t.Fatalf("result %d out of order: seq=%q par=%q want %q", i, s.Query, p.Query, q.ID)
		}
		if s.BlocksRead != p.BlocksRead || s.TotalBlocks != p.TotalBlocks {
			t.Errorf("%s: blocks seq=%d/%d par=%d/%d", q.ID, s.BlocksRead, s.TotalBlocks, p.BlocksRead, p.TotalBlocks)
		}
		if s.Seconds != p.Seconds {
			t.Errorf("%s: seconds seq=%v par=%v", q.ID, s.Seconds, p.Seconds)
		}
		for alias, n := range s.SurvivingRows {
			if p.SurvivingRows[alias] != n {
				t.Errorf("%s: %s survivors seq=%d par=%d", q.ID, alias, n, p.SurvivingRows[alias])
			}
		}
	}
	if seq.Blocks != par.Blocks || seq.TotalBlocks != par.TotalBlocks {
		t.Errorf("workload blocks: seq=%d/%d par=%d/%d", seq.Blocks, seq.TotalBlocks, par.Blocks, par.TotalBlocks)
	}
	if seq.Seconds != par.Seconds {
		t.Errorf("workload seconds: seq=%v par=%v", seq.Seconds, par.Seconds)
	}
	if seq.Fraction != par.Fraction {
		t.Errorf("workload fraction: seq=%v par=%v", seq.Fraction, par.Fraction)
	}
	for table, st := range seq.PerTable {
		pt := par.PerTable[table]
		if pt == nil || *st != *pt {
			t.Errorf("per-table totals for %s: seq=%+v par=%+v", table, st, pt)
		}
	}
	seqIO, parIO := blocktest.SimulatedIO(seqStore.Stats().Sub(seqBase)), blocktest.SimulatedIO(parStore.Stats().Sub(parBase))
	if seqIO != parIO {
		t.Errorf("store stats: seq=%+v par=%+v", seqIO, parIO)
	}
}

// TestRunWorkloadSharedStore runs sequential and parallel replays against
// the SAME engine and store, checking that cumulative metering is exact
// (every block read is counted once) regardless of interleaving. Only the
// simulated counters are compared: the second replay finds the pool warm.
func TestRunWorkloadSharedStore(t *testing.T) {
	ds := snowflakeDS(t, 100, 8000, 12)
	store, design := installSnowflake(t, ds, 400)
	eng := New(store, design, ds, parallelEngineOptions())
	queries := snowflakeWorkload(16)

	before := store.Stats()
	seq, err := RunWorkload(eng, queries, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	afterSeq := blocktest.SimulatedIO(store.Stats().Sub(before))
	par, err := RunWorkload(eng, queries, RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	afterPar := blocktest.SimulatedIO(store.Stats().Sub(before)).Sub(afterSeq)
	if afterSeq != afterPar {
		t.Errorf("metering drifted between replays: seq=%+v par=%+v", afterSeq, afterPar)
	}
	if int64(seq.Blocks) != afterSeq.BlocksRead || int64(par.Blocks) != afterPar.BlocksRead {
		t.Errorf("aggregate blocks (%d, %d) disagree with store metering (%+v, %+v)",
			seq.Blocks, par.Blocks, afterSeq, afterPar)
	}
}

// TestRunWorkloadErrors checks that a failing query aborts the run with
// the first error in input order, under both execution modes.
func TestRunWorkloadErrors(t *testing.T) {
	ds := snowflakeDS(t, 50, 2000, 13)
	store, design := installSnowflake(t, ds, 400)
	eng := New(store, design, ds, DefaultOptions())

	queries := snowflakeWorkload(8)
	queries[3] = workload.NewQuery("bad3", workload.TableRef{Table: "nope"})
	queries[6] = workload.NewQuery("bad6", workload.TableRef{Table: "nope"})
	for _, par := range []int{1, 4} {
		if _, err := RunWorkload(eng, queries, RunOptions{Parallelism: par}); err == nil {
			t.Errorf("parallelism %d: error not reported", par)
		}
	}
	// Empty workloads are fine.
	res, err := RunWorkload(eng, nil, RunOptions{Parallelism: 4})
	if err != nil || len(res.Results) != 0 || res.Seconds != 0 {
		t.Errorf("empty workload: res=%+v err=%v", res, err)
	}
}

// BenchmarkRunWorkload measures full-workload replay wall-clock at several
// parallelism levels; on a multi-core runner parallelism 4 should beat
// sequential by well over 2×.
func BenchmarkRunWorkload(b *testing.B) {
	ds := snowflakeDS(b, 300, 60000, 14)
	store, design := installSnowflake(b, ds, 500)
	queries := snowflakeWorkload(64)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			eng := New(store, design, ds, parallelEngineOptions())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWorkload(eng, queries, RunOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
