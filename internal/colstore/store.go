package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

// Store is the block.Backend: one segment per table layout, read through
// a sharded buffer pool. Opened on a data directory (NewStore), segments
// are files under it; opened without one (NewMemStore), each generation's
// bytes stay in memory. The two differ only in who receives the encoder's
// bytes and who supplies the io.ReaderAt the pages are read through: footer
// parse, page framing and checksums, pool, kernels and metering are the
// same code. Metadata (block counts, zone maps) is served from the
// parsed segment footers without page I/O; a block visit reads its row-ID
// page and the pages of the columns it names.
//
// Every block visit meters one block and its rows whether it hits the pool
// or not; the cache counters and BytesRead record the real page traffic on
// top.
//
// A Store is safe for concurrent use. A layout changes in two steps:
// preparing encodes and validates a new generation-numbered segment beside
// running reads (a file store writes it under a staged name that NewStore
// does not adopt); committing takes the lock only to give the file its final
// name, swap the table's state, unlink the superseded segment and invalidate
// the table's buffer-pool entries. Scans and folds pin the tableState they
// compiled against, so in-flight readers keep the superseded segment
// readable; its file handle or bytes go with the last of them.
//
// A Store starts no goroutine: a page enters the pool only when a block
// visit that names it loads it, on the visit's own goroutine.
type Store struct {
	dir  string // "" keeps segment bytes in memory
	cost block.CostModel
	pool *Pool

	mu     sync.RWMutex
	tables map[string]*tableState
	gen    atomic.Uint64 // last generation number handed to a prepare
	closed atomic.Bool   // set by Close under mu: prepares and commits are refused

	blocksRead      atomic.Int64
	blocksWritten   atomic.Int64
	rowsRead        atomic.Int64
	rowsWritten     atomic.Int64
	bytesRead       atomic.Int64
	groupedDeclined atomic.Int64
	scanLeaves      atomic.Int64
	scanDecided     atomic.Int64
	scanDecodes     atomic.Int64
}

var _ block.Backend = (*Store)(nil)

// tableState is one table's current segment plus its position geometry
// and the row→block auxiliary index derived from it.
type tableState struct {
	base *relation.Table
	seg  *Segment
	gen  uint64

	rowToBlockOnce sync.Once
	rowToBlock     []int32
	rowToBlockErr  error

	// order is the generation's block.RowOrder: set by the prepare that
	// staged it, from the layout's rows, or built on first use from the
	// row-ID pages of a reopened segment.
	orderOnce sync.Once
	order     *block.RowOrder
	orderErr  error
}

// memPoolBytes sizes the pool of a store that keeps its segments in
// memory: nothing is ever evicted.
const memPoolBytes = math.MaxInt64

func newStore(dir string, cacheBytes int64, cost block.CostModel) *Store {
	return &Store{
		dir:    dir,
		cost:   cost,
		pool:   NewPool(cacheBytes),
		tables: make(map[string]*tableState),
	}
}

// NewMemStore returns a store that keeps every segment generation's bytes
// in memory instead of a data directory (the "mem" store of the CLIs and
// mto.Config). Nothing outlives the process, so there is nothing to reopen.
func NewMemStore(cost block.CostModel) *Store {
	return newStore("", memPoolBytes, cost)
}

// NewStore opens (creating if needed) a segment store rooted at dir with
// a buffer pool of cacheBytes. Existing segment files in dir are
// reopened — the newest generation per table wins — but their base tables
// are unknown until SetLayout, so a freshly reopened store serves reads
// and metadata only. Staged files a crash left between prepare and commit
// are removed.
func NewStore(dir string, cacheBytes int64, cost block.CostModel) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: create data dir: %w", err)
	}
	s := newStore(dir, cacheBytes, cost)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: read data dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), stagedSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name())) // if it stays, it is still never adopted
			continue
		}
		table, gen, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		prev := s.tables[table]
		if prev != nil && prev.gen >= gen {
			continue
		}
		seg, err := OpenSegment(filepath.Join(dir, e.Name()))
		if err != nil {
			s.Close()
			return nil, err
		}
		if prev != nil {
			prev.seg.Close() // superseded before anyone could read it
		}
		s.tables[table] = &tableState{seg: seg, gen: gen}
		if gen > s.gen.Load() {
			s.gen.Store(gen)
		}
	}
	return s, nil
}

var errClosed = errors.New("colstore: store is closed")

// stagedSuffix marks the file of a prepared generation; parseSegmentName
// rejects it, so a reopened store adopts committed layouts only.
const stagedSuffix = ".staged"

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

// Dir returns the store's data directory, "" for a store that keeps its
// segments in memory.
func (s *Store) Dir() string { return s.dir }

// Cost returns the store's cost model.
func (s *Store) Cost() block.CostModel { return s.cost }

// Close releases the current segments, so it comes after the last scan or
// fold: their block visits read through the segments' handles. A closed
// store refuses every later prepare and commit.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
	var errs []error
	for _, st := range s.tables {
		errs = append(errs, st.seg.Close())
	}
	s.tables = make(map[string]*tableState)
	return errors.Join(errs...)
}

// SetLayout is PrepareLayout committed on the spot.
func (s *Store) SetLayout(table string, tl *block.TableLayout) (float64, error) {
	return block.CommitNow(s.PrepareLayout(table, tl))
}

// ReplaceBlocks is PrepareReplace committed on the spot.
func (s *Store) ReplaceBlocks(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (float64, error) {
	return block.CommitNow(s.PrepareReplace(table, oldIDs, newGroups, blockSize))
}

// PrepareLayout stages tl as the table's next segment generation; every
// block and row is charged as written at commit.
func (s *Store) PrepareLayout(table string, tl *block.TableLayout) (block.Prepared, error) {
	if strings.ContainsAny(table, "/\\") || table == "" {
		return nil, fmt.Errorf("colstore: bad table name %q", table)
	}
	return s.prepare(table, s.state(table), tl, int64(tl.NumBlocks()), int64(tl.Table().NumRows()))
}

// PrepareReplace stages a partial reorganization: the surviving blocks' row
// sets are read back from the current segment's row-ID pages and carried
// over renumbered, newGroups are appended (block.BuildReplacement), and the
// result is encoded as the next segment generation. Only the appended
// blocks and rows are charged at commit.
func (s *Store) PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (block.Prepared, error) {
	st := s.state(table)
	if st == nil {
		return nil, fmt.Errorf("colstore: no segment for table %q", table)
	}
	if st.base == nil {
		return nil, fmt.Errorf("colstore: table %q reopened without a base table; SetLayout first", table)
	}
	blockRows := make([][]int32, st.seg.NumBlocks())
	for id := range blockRows {
		rows, n, err := st.seg.ReadRowIDs(id)
		if err != nil {
			return nil, err
		}
		s.bytesRead.Add(n)
		blockRows[id] = rows
	}
	replaced, blocks, rows, err := block.BuildReplacement(st.base, blockRows, oldIDs, newGroups, blockSize)
	if err != nil {
		return nil, err
	}
	return s.prepare(table, st, replaced, blocks, rows)
}

// prepared is a segment generation encoded and validated but not published.
type prepared struct {
	s            *Store
	table        string
	prev         *tableState // the table's state when the prepare began
	next         *tableState // nil once committed or aborted
	blocks, rows int64       // charged as written at commit
}

// prepare encodes and validates tl as the generation to succeed prev. It
// holds no lock.
func (s *Store) prepare(table string, prev *tableState, tl *block.TableLayout, blocks, rows int64) (block.Prepared, error) {
	if s.closed.Load() {
		return nil, errClosed
	}
	gen := s.gen.Add(1)
	seg, err := s.writeSegment(segmentName(table, gen), tl)
	if err != nil {
		return nil, err
	}
	blockRows := make([][]int32, tl.NumBlocks())
	for id, b := range tl.Blocks() {
		blockRows[id] = b.Rows
	}
	p := &prepared{s: s, table: table, prev: prev, blocks: blocks, rows: rows,
		next: &tableState{base: tl.Table(), seg: seg, gen: gen, order: block.NewRowOrder(blockRows)}}
	if err := seg.ValidateAgainst(tl.Table().Schema()); err != nil {
		p.Abort()
		return nil, err
	}
	return p, nil
}

// Commit publishes the prepared generation — the one place a table's state
// changes, so readers only ever see complete segments — unless the table
// moved on since the prepare began. The superseded segment is unlinked and
// forgotten (whoever is still reading it keeps it alive), its pool entries
// are dropped, and the written blocks and rows are charged.
func (p *prepared) Commit() (float64, error) {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, errClosed
	}
	if p.next == nil || s.tables[p.table] != p.prev {
		return 0, fmt.Errorf("colstore: layout of %q changed since this one was prepared (or it was already committed or aborted)", p.table)
	}
	if err := p.next.seg.publish(); err != nil {
		return 0, err
	}
	if p.prev != nil {
		p.prev.seg.unlink()
	}
	s.tables[p.table] = p.next
	s.pool.InvalidateBelow(p.table, p.next.gen)
	s.blocksWritten.Add(p.blocks)
	s.rowsWritten.Add(p.rows)
	p.next = nil
	return float64(p.blocks) * s.cost.BlockWriteSeconds, nil
}

// Abort closes and removes the unpublished segment.
func (p *prepared) Abort() {
	if p.next != nil {
		p.next.seg.Close()
		p.next.seg.unlink()
		p.next = nil
	}
}

// writeSegment encodes tl and opens the result: a file under the data
// directory, synced, under its staged name; or a buffer the segment keeps
// when the store has no directory. This, Segment.publish and Segment.unlink
// are the only places the two differ.
func (s *Store) writeSegment(name string, tl *block.TableLayout) (*Segment, error) {
	if s.dir == "" {
		var image bytes.Buffer
		if err := encodeSegment(&image, tl); err != nil {
			return nil, fmt.Errorf("colstore: encode segment %s: %w", name, err)
		}
		return openSegmentBytes(name, image.Bytes())
	}
	path := filepath.Join(s.dir, name+stagedSuffix)
	if err := WriteSegment(path, tl); err != nil {
		return nil, err
	}
	seg, err := OpenSegment(path)
	if err != nil {
		os.Remove(path)
	}
	return seg, err
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
// miss — and returns its row IDs and zone map. It reads the row-ID page
// through the same pool entry as a scan of the block, so a ReadBlock after
// a scan reads nothing and a scan after a ReadBlock reads only its columns'
// pages.
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
	eb, err := s.encodedBlock(table, st, id, []int{rowIDPage})
	if err != nil {
		return nil, err
	}
	return eb.Block, nil
}

// encodedBlock returns block id of st's segment in wire form, holding at
// least the pages of cols, through the buffer pool: the resident snapshot
// when it has them, else one extended by the pages it lacks. Not metered —
// ReadBlock and ScanBlock meter the block themselves, and a fold is charged
// to the scan that produced its survivors.
func (s *Store) encodedBlock(table string, st *tableState, id int, cols []int) (*EncodedBlock, error) {
	if len(cols) == 0 {
		return st.seg.blocks[id].bare, nil // no page to read: skip the pool
	}
	k := poolKey{table: table, gen: st.gen, id: id}
	return s.pool.GetPages(k, cols, func(prev *EncodedBlock) (*EncodedBlock, error) {
		eb, n, err := st.seg.readPages(id, cols, prev)
		if err != nil {
			return nil, err
		}
		s.bytesRead.Add(n)
		return eb, nil
	})
}

// RowToBlock returns the table's row index → block ID mapping, built
// lazily (once per segment generation) from its RowOrder. As an
// auxiliary-index read it is not metered as block I/O; a reopened
// segment's row-ID pages, read once for the RowOrder, land in
// Stats.BytesRead. Callers must not mutate the returned slice.
func (s *Store) RowToBlock(table string) ([]int32, error) {
	st := s.state(table)
	if st == nil {
		return nil, fmt.Errorf("colstore: no segment for table %q", table)
	}
	st.rowToBlockOnce.Do(func() {
		order, err := s.rowOrder(st)
		if err != nil {
			st.rowToBlockErr = err
			return
		}
		m := make([]int32, st.seg.TotalRows())
		for p, r := range order.Rows {
			if r >= 0 {
				m[r] = int32(order.BlockOf(p))
			}
		}
		st.rowToBlock = m
	})
	return st.rowToBlock, st.rowToBlockErr
}

// rowOrder returns st's position geometry: the one its prepare built, or
// for a reopened segment one built once from the row-ID pages, which land
// in Stats.BytesRead like RowToBlock's.
func (s *Store) rowOrder(st *tableState) (*block.RowOrder, error) {
	st.orderOnce.Do(func() {
		if st.order != nil {
			return
		}
		blockRows := make([][]int32, st.seg.NumBlocks())
		for id := range blockRows {
			rows, n, err := st.seg.ReadRowIDs(id)
			if err != nil {
				st.orderErr = err
				return
			}
			s.bytesRead.Add(n)
			for _, r := range rows {
				if int(r) >= st.seg.TotalRows() {
					st.orderErr = fmt.Errorf("colstore: segment %s: block %d row index %d beyond table size %d",
						filepath.Base(st.seg.Path()), id, r, st.seg.TotalRows())
					return
				}
			}
			blockRows[id] = rows
		}
		st.order = block.NewRowOrder(blockRows)
	})
	return st.order, st.orderErr
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
	return block.Stats{
		BlocksRead:     s.blocksRead.Load(),
		BlocksWritten:  s.blocksWritten.Load(),
		RowsRead:       s.rowsRead.Load(),
		RowsWritten:    s.rowsWritten.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		BytesRead:      s.bytesRead.Load(),

		GroupedFoldsDeclined: s.groupedDeclined.Load(),

		ScanLeaves:            s.scanLeaves.Load(),
		ScanLeavesZoneDecided: s.scanDecided.Load(),
		ScanPageDecodes:       s.scanDecodes.Load(),
	}
}
