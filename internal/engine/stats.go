package engine

import (
	"math"
	"sync/atomic"
)

// Stats is a point-in-time copy of one engine's cumulative execution
// counters. All fields are monotonically increasing over the engine's
// lifetime; subtract two snapshots to measure an interval.
type Stats struct {
	// Queries counts successful Execute/ExecuteReference completions;
	// Errors counts failed ones.
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	// BlocksRead / RowsScanned / SimSeconds sum the corresponding Result
	// fields of every successful execution through this engine. They track
	// the engine's own traffic — unlike block.Stats, which meters the
	// backend across every engine sharing it.
	BlocksRead  int64   `json:"blocks_read"`
	RowsScanned int64   `json:"rows_scanned"`
	SimSeconds  float64 `json:"sim_seconds"`
	// MaterializedFoldRows counts survivor rows Execute walks in the
	// row-order fold pass (grouped.go), once per alias that pass folds:
	// the aggregates the backend's fold does not take cost this many row
	// visits. Unlike the fields above it counts as it happens, failed
	// executions included.
	MaterializedFoldRows int64 `json:"materialized_fold_rows"`
}

// Sub returns s - o, for measuring deltas between snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Queries:     s.Queries - o.Queries,
		Errors:      s.Errors - o.Errors,
		BlocksRead:  s.BlocksRead - o.BlocksRead,
		RowsScanned: s.RowsScanned - o.RowsScanned,
		SimSeconds:  s.SimSeconds - o.SimSeconds,

		MaterializedFoldRows: s.MaterializedFoldRows - o.MaterializedFoldRows,
	}
}

// Add returns s + o, for summing the counters of several engines.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Queries:     s.Queries + o.Queries,
		Errors:      s.Errors + o.Errors,
		BlocksRead:  s.BlocksRead + o.BlocksRead,
		RowsScanned: s.RowsScanned + o.RowsScanned,
		SimSeconds:  s.SimSeconds + o.SimSeconds,

		MaterializedFoldRows: s.MaterializedFoldRows + o.MaterializedFoldRows,
	}
}

// engineCounters is the engine's live counter set. Every field is an
// atomic, so concurrent Execute calls (the parallel workload pool, the
// serving layer's workers) update them without sharing the engine's cache
// mutex, and StatsSnapshot reads a consistent copy of each counter without
// observing a torn mid-update value.
type engineCounters struct {
	queries     atomic.Int64
	errors      atomic.Int64
	blocksRead  atomic.Int64
	rowsScanned atomic.Int64
	simSecBits  atomic.Uint64 // float64 bits, CAS-accumulated

	materializedFoldRows atomic.Int64 // bumped by foldAlias, not by note
}

// note records one execution's outcome.
func (c *engineCounters) note(res *Result, err error) {
	if err != nil {
		c.errors.Add(1)
		return
	}
	c.queries.Add(1)
	c.blocksRead.Add(int64(res.BlocksRead))
	rows := 0
	for _, ta := range res.PerTable {
		rows += ta.RowsScanned
	}
	c.rowsScanned.Add(int64(rows))
	for {
		old := c.simSecBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + res.Seconds)
		if c.simSecBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// StatsSnapshot returns a copy-on-read snapshot of the engine's execution
// counters: each counter is loaded atomically, so a snapshot taken while
// queries are in flight never reads a counter mid-update. (The float
// SimSeconds total depends on accumulation order under concurrency, as any
// parallel float reduction does; every integer counter is exact.)
func (e *Engine) StatsSnapshot() Stats {
	return Stats{
		Queries:     e.counters.queries.Load(),
		Errors:      e.counters.errors.Load(),
		BlocksRead:  e.counters.blocksRead.Load(),
		RowsScanned: e.counters.rowsScanned.Load(),
		SimSeconds:  math.Float64frombits(e.counters.simSecBits.Load()),

		MaterializedFoldRows: e.counters.materializedFoldRows.Load(),
	}
}
