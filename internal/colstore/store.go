package colstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/zonemap"
)

// Store is the persistent "disk" block.Backend: one segment file per
// table layout under a data directory, read through a sharded buffer
// pool. Metadata (block counts, zone maps) is served from the parsed
// segment footers without page I/O; ReadBlock decodes pages on demand.
//
// I/O accounting is charged identically to the in-memory backend — every
// ReadBlock meters one block and its rows whether it hits the cache or
// not, and writes route through the shared block.InstallDelta /
// block.BuildReplacement helpers — so experiments produce byte-identical
// Results on either backend. The cache counters and BytesRead record the
// real disk behavior on top.
//
// A Store is safe for concurrent use. Layout swaps (SetLayout,
// ReplaceBlocks) write a new generation-numbered segment to a temp file,
// rename it into place, swap the table's state under the lock, and then
// invalidate the table's buffer-pool entries; the retired segment stays
// open until Close so in-flight reads never hit a closed file.
type Store struct {
	dir        string
	cost       block.CostModel
	pool       *Pool
	cacheBytes int64
	pf         *prefetcher

	mu      sync.RWMutex
	tables  map[string]*tableState
	retired []*Segment
	gen     uint64

	blocksRead      atomic.Int64
	blocksWritten   atomic.Int64
	rowsRead        atomic.Int64
	rowsWritten     atomic.Int64
	bytesRead       atomic.Int64
	groupedDeclined atomic.Int64
}

var _ block.Backend = (*Store)(nil)

// tableState is one table's current segment plus its lazily built
// row→block auxiliary index.
type tableState struct {
	base *relation.Table
	seg  *Segment
	gen  uint64

	rowToBlockOnce sync.Once
	rowToBlock     []int32
	rowToBlockErr  error
}

// NewStore opens (creating if needed) a segment store rooted at dir with
// a decoded-block cache of cacheBytes. Existing segment files in dir are
// reopened — the newest generation per table wins — but their base tables
// are unknown until SetLayout, so a freshly reopened store serves reads
// and metadata only.
func NewStore(dir string, cacheBytes int64, cost block.CostModel) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: create data dir: %w", err)
	}
	s := &Store{
		dir:        dir,
		cost:       cost,
		pool:       NewPool(cacheBytes),
		cacheBytes: cacheBytes,
		tables:     make(map[string]*tableState),
	}
	s.pf = newPrefetcher(s)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: read data dir: %w", err)
	}
	for _, e := range entries {
		table, gen, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		if prev, exists := s.tables[table]; exists && prev.gen >= gen {
			continue
		}
		seg, err := OpenSegment(filepath.Join(dir, e.Name()))
		if err != nil {
			s.Close()
			return nil, err
		}
		if prev := s.tables[table]; prev != nil {
			s.retired = append(s.retired, prev.seg)
		}
		s.tables[table] = &tableState{seg: seg, gen: gen}
		if gen > s.gen {
			s.gen = gen
		}
	}
	return s, nil
}

func segmentName(table string, gen uint64) string {
	return fmt.Sprintf("%s-%08d.seg", table, gen)
}

func parseSegmentName(name string) (table string, gen uint64, ok bool) {
	if !strings.HasSuffix(name, ".seg") {
		return "", 0, false
	}
	stem := strings.TrimSuffix(name, ".seg")
	i := strings.LastIndexByte(stem, '-')
	if i <= 0 {
		return "", 0, false
	}
	var g uint64
	if _, err := fmt.Sscanf(stem[i+1:], "%d", &g); err != nil {
		return "", 0, false
	}
	return stem[:i], g, true
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Cost returns the store's cost model.
func (s *Store) Cost() block.CostModel { return s.cost }

// Close stops the readahead workers, then releases every open segment,
// current and retired — in that order, so a prefetch load can never read
// from a closed file.
func (s *Store) Close() error {
	s.pf.shutdown()
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, st := range s.tables {
		errs = append(errs, st.seg.Close())
	}
	for _, seg := range s.retired {
		errs = append(errs, seg.Close())
	}
	s.tables = make(map[string]*tableState)
	s.retired = nil
	return errors.Join(errs...)
}

// SetLayout persists tl as a new segment file for table and makes it the
// table's current layout, metering the block writes exactly like the
// in-memory backend. The segment is written to a temp file and renamed,
// so readers only ever see complete segments; the table's cached blocks
// are invalidated after the swap.
func (s *Store) SetLayout(table string, tl *block.TableLayout) (float64, error) {
	if strings.ContainsAny(table, "/\\") || table == "" {
		return 0, fmt.Errorf("colstore: bad table name %q", table)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen + 1
	path := filepath.Join(s.dir, segmentName(table, gen))
	if err := WriteSegment(path, tl); err != nil {
		return 0, err
	}
	seg, err := OpenSegment(path)
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	if err := seg.ValidateAgainst(tl.Table().Schema()); err != nil {
		seg.Close()
		os.Remove(path)
		return 0, err
	}
	s.gen = gen
	if prev := s.tables[table]; prev != nil {
		s.retired = append(s.retired, prev.seg)
		os.Remove(prev.seg.Path())
	}
	s.tables[table] = &tableState{base: tl.Table(), seg: seg, gen: gen}
	s.pool.InvalidateBelow(table, gen)
	delta := block.InstallDelta(tl)
	s.blocksWritten.Add(delta.Blocks)
	s.rowsWritten.Add(delta.Rows)
	return delta.Seconds(s.cost), nil
}

// ReplaceBlocks swaps a subset of a table's blocks for new ones (partial
// reorganization): the surviving blocks' row sets are read back from the
// current segment's row-ID pages, the replacement layout is built through
// the shared block.BuildReplacement helper (so the write accounting
// matches the in-memory backend exactly), and the result is persisted as
// a new segment generation and swapped in atomically.
func (s *Store) ReplaceBlocks(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.tables[table]
	if !ok {
		return 0, fmt.Errorf("colstore: no segment for table %q", table)
	}
	if st.base == nil {
		return 0, fmt.Errorf("colstore: table %q reopened without a base table; SetLayout first", table)
	}
	blockRows := make([][]int32, st.seg.NumBlocks())
	for id := range blockRows {
		rows, n, err := st.seg.ReadRowIDs(id)
		if err != nil {
			return 0, err
		}
		s.bytesRead.Add(n)
		blockRows[id] = rows
	}
	replaced, delta, err := block.BuildReplacement(st.base, blockRows, oldIDs, newGroups, blockSize)
	if err != nil {
		return 0, err
	}
	gen := s.gen + 1
	path := filepath.Join(s.dir, segmentName(table, gen))
	if err := WriteSegment(path, replaced); err != nil {
		return 0, err
	}
	seg, err := OpenSegment(path)
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	s.gen = gen
	s.retired = append(s.retired, st.seg)
	os.Remove(st.seg.Path())
	s.tables[table] = &tableState{base: st.base, seg: seg, gen: gen}
	s.pool.InvalidateBelow(table, gen)
	s.blocksWritten.Add(delta.Blocks)
	s.rowsWritten.Add(delta.Rows)
	return delta.Seconds(s.cost), nil
}

func (s *Store) state(table string) *tableState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[table]
}

// NumBlocks returns the table's block count from the segment footer, or
// -1 when no segment is installed. No page I/O.
func (s *Store) NumBlocks(table string) int {
	st := s.state(table)
	if st == nil {
		return -1
	}
	return st.seg.NumBlocks()
}

// Zones returns the table's per-block zone maps parsed from the segment
// footer, or nil when no segment is installed. No page I/O — pruning a
// block via these never adds to BytesRead.
func (s *Store) Zones(table string) []*zonemap.ZoneMap {
	st := s.state(table)
	if st == nil {
		return nil
	}
	return st.seg.Zones()
}

// ReadBlock meters the read of one block — identically on a cache hit or
// miss, matching the in-memory backend — and returns it, decoding the
// block's pages through the buffer pool on a miss. Concurrent misses on
// the same block single-flight into one disk read.
func (s *Store) ReadBlock(table string, id int) (*block.Block, error) {
	st := s.state(table)
	if st == nil {
		return nil, fmt.Errorf("colstore: no segment for table %q", table)
	}
	if id < 0 || id >= st.seg.NumBlocks() {
		return nil, fmt.Errorf("colstore: %s has no block %d", table, id)
	}
	s.blocksRead.Add(1)
	s.rowsRead.Add(int64(st.seg.BlockRows(id)))
	bd, err := s.ReadBlockData(table, id)
	if err != nil {
		return nil, err
	}
	return bd.Block, nil
}

// ReadBlockData is ReadBlock without the simulated-I/O metering,
// returning the decoded column vectors as well. It is the raw cache-or-
// load path; ReadBlock layers the accounting on top.
func (s *Store) ReadBlockData(table string, id int) (*BlockData, error) {
	st := s.state(table)
	if st == nil {
		return nil, fmt.Errorf("colstore: no segment for table %q", table)
	}
	return s.pool.Get(poolKey{table: table, gen: st.gen, id: id}, func() (*BlockData, error) {
		bd, err := st.seg.ReadBlock(id)
		if err != nil {
			return nil, err
		}
		s.bytesRead.Add(bd.Bytes)
		return bd, nil
	})
}

// encodedBlock returns block id of st's segment in wire form, holding at
// least the pages of cols, through the buffer pool: the resident snapshot
// when it has them, else one extended by the pages it lacks. Not metered —
// the compressed scan meters the block itself, matching ReadBlock. With
// prefetch it is a readahead worker's load (see Pool.GetPages): the error
// is the caller's to drop, the demand read re-runs the load and surfaces it.
func (s *Store) encodedBlock(table string, st *tableState, id int, cols []int, prefetch bool) (*EncodedBlock, error) {
	k := poolKey{table: table, gen: st.gen, id: id, form: formEncoded}
	return s.pool.GetPages(k, cols, prefetch, func(prev *EncodedBlock) (*EncodedBlock, error) {
		eb, n, err := st.seg.readPages(id, cols, prev)
		if err != nil {
			return nil, err
		}
		s.bytesRead.Add(n)
		return eb, nil
	})
}

// RowToBlock returns the table's row index → block ID mapping, built
// lazily (once per segment generation) from the segment's row-ID pages.
// As an auxiliary-index read it is not metered as block I/O; only the
// row-ID page bytes land in Stats.BytesRead. Callers must not mutate the
// returned slice.
func (s *Store) RowToBlock(table string) ([]int32, error) {
	st := s.state(table)
	if st == nil {
		return nil, fmt.Errorf("colstore: no segment for table %q", table)
	}
	st.rowToBlockOnce.Do(func() {
		m := make([]int32, st.seg.TotalRows())
		for id := 0; id < st.seg.NumBlocks(); id++ {
			rows, n, err := st.seg.ReadRowIDs(id)
			if err != nil {
				st.rowToBlockErr = err
				return
			}
			s.bytesRead.Add(n)
			for _, r := range rows {
				if int(r) >= len(m) {
					st.rowToBlockErr = fmt.Errorf("colstore: segment %s: block %d row index %d beyond table size %d",
						filepath.Base(st.seg.Path()), id, r, len(m))
					return
				}
				m[r] = int32(id)
			}
		}
		st.rowToBlock = m
	})
	return st.rowToBlock, st.rowToBlockErr
}

// Tables returns the stored table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for t := range s.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TotalBlocks returns the number of blocks across the given tables (all
// tables when none specified). Footer metadata only.
func (s *Store) TotalBlocks(tables ...string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(tables) == 0 {
		for t := range s.tables {
			tables = append(tables, t)
		}
	}
	n := 0
	for _, t := range tables {
		if st := s.tables[t]; st != nil {
			n += st.seg.NumBlocks()
		}
	}
	return n
}

// Stats returns a snapshot of the I/O and buffer-pool counters.
func (s *Store) Stats() block.Stats {
	hits, misses, evictions := s.pool.Counters()
	prefetched, raHits := s.pool.PrefetchCounters()
	return block.Stats{
		BlocksRead:     s.blocksRead.Load(),
		BlocksWritten:  s.blocksWritten.Load(),
		RowsRead:       s.rowsRead.Load(),
		RowsWritten:    s.rowsWritten.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		BytesRead:      s.bytesRead.Load(),
		Prefetched:     prefetched,
		ReadaheadHits:  raHits,

		GroupedFoldsDeclined: s.groupedDeclined.Load(),
	}
}

// StatsSnapshot is Stats under the uniform copy-on-read name shared with
// engine.Engine and block.Store, so the serving layer snapshots every
// meter through one method name. Each counter is loaded atomically (the
// pool counters under the pool's own mutex); the returned value is a
// plain copy the caller owns.
func (s *Store) StatsSnapshot() block.Stats { return s.Stats() }
