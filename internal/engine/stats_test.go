package engine

import (
	"sync"
	"testing"

	"mto/internal/workload"
)

// TestStatsSnapshotConcurrent hammers Execute from many goroutines while
// snapshotting concurrently (under -race this is the data-race check for
// the engine counters), then verifies the final snapshot's exact counters
// against a sequential replay of the same workload on a fresh engine.
func TestStatsSnapshotConcurrent(t *testing.T) {
	ds := snowflakeDS(t, 100, 5000, 3)
	queries := snowflakeWorkload(24)

	store, design := installSnowflake(t, ds, 500)
	e := New(store, design, ds, parallelEngineOptions())

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 8 {
				if _, err := e.Execute(queries[i]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := e.StatsSnapshot()
			if s.Queries < 0 || s.BlocksRead < 0 {
				t.Error("negative counter in snapshot")
			}
		}
	}()
	wg.Wait()
	<-done

	got := e.StatsSnapshot()
	if got.Queries != int64(len(queries)) || got.Errors != 0 {
		t.Fatalf("queries=%d errors=%d, want %d/0", got.Queries, got.Errors, len(queries))
	}

	refStore, refDesign := installSnowflake(t, ds, 500)
	ref := New(refStore, refDesign, ds, parallelEngineOptions())
	var wantBlocks, wantRows int64
	for _, q := range queries {
		res, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks += int64(res.BlocksRead)
		for _, ta := range res.PerTable {
			wantRows += int64(ta.RowsScanned)
		}
	}
	if got.BlocksRead != wantBlocks || got.RowsScanned != wantRows {
		t.Fatalf("blocks=%d rows=%d, want %d/%d", got.BlocksRead, got.RowsScanned, wantBlocks, wantRows)
	}
	if got.SimSeconds <= 0 {
		t.Fatalf("SimSeconds=%v, want > 0", got.SimSeconds)
	}

	// The errors counter meters failed executions.
	bad := snowflakeWorkload(1)[0]
	bad.Tables[0].Table = "no-such-table"
	if _, err := e.Execute(bad); err == nil {
		t.Fatal("expected error for missing table")
	}
	if s := e.StatsSnapshot(); s.Errors != 1 {
		t.Fatalf("Errors=%d after failed query, want 1", s.Errors)
	}
}

// TestReorderAggregates covers the cache-hit declaration-order restoration.
func TestReorderAggregates(t *testing.T) {
	spec := func(op workload.AggOp, alias, col string) workload.Aggregate {
		return workload.Aggregate{Op: op, Alias: alias, Column: col}
	}
	count, minK, sum := spec(workload.AggCount, "lo", ""), spec(workload.AggMin, "d", "k"), spec(workload.AggSum, "lo", "rev")
	cached := []AggValue{{Spec: count}, {Spec: minK}, {Spec: sum}}
	want := []workload.Aggregate{sum, count, minK}
	out, ok := ReorderAggregates(cached, want)
	if !ok {
		t.Fatal("reorder failed on matching sets")
	}
	for i, spec := range want {
		if out[i].Spec != spec {
			t.Fatalf("position %d: got %s, want %s", i, out[i].Spec, spec)
		}
	}
	if _, ok := ReorderAggregates(cached, []workload.Aggregate{sum, count}); ok {
		t.Fatal("length mismatch accepted")
	}
	if _, ok := ReorderAggregates(cached, []workload.Aggregate{sum, count, spec(workload.AggMax, "d", "k")}); ok {
		t.Fatal("spec mismatch accepted")
	}
	out, ok = ReorderAggregates(nil, nil)
	if !ok || out != nil {
		t.Fatal("empty sets should reorder to nil, true")
	}
}
