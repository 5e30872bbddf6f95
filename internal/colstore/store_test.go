package colstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/block/blocktest"
)

// TestStoreDiskMatchesMem is the write-accounting and metadata regression
// test: every Backend operation must report the same simulated seconds and
// the same Stats deltas on a store that keeps its segments in files as on
// one that keeps them in memory.
func TestStoreDiskMatchesMem(t *testing.T) {
	tab := mixedTable(t, 100)
	tl := mixedLayout(t, tab)
	cost := block.DefaultCostModel()
	mem := NewMemStore(cost)
	disk, err := NewStore(t.TempDir(), 1<<20, cost)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	memSec, err := mem.SetLayout("mix", tl)
	if err != nil {
		t.Fatal(err)
	}
	diskSec, err := disk.SetLayout("mix", tl)
	if err != nil {
		t.Fatal(err)
	}
	if memSec != diskSec {
		t.Errorf("SetLayout seconds: mem %g, disk %g", memSec, diskSec)
	}
	ms, ds := mem.Stats(), disk.Stats()
	if ms.BlocksWritten != ds.BlocksWritten || ms.RowsWritten != ds.RowsWritten {
		t.Errorf("write stats: mem %+v, disk %+v", ms, ds)
	}
	if mem.NumBlocks("mix") != disk.NumBlocks("mix") || mem.TotalBlocks() != disk.TotalBlocks() {
		t.Error("block counts differ")
	}
	if disk.NumBlocks("missing") != -1 {
		t.Error("missing table NumBlocks != -1")
	}
	if !reflect.DeepEqual(mem.Tables(), disk.Tables()) {
		t.Error("Tables differ")
	}
	if !reflect.DeepEqual(mem.Zones("mix"), disk.Zones("mix")) {
		t.Error("Zones differ")
	}

	for id := 0; id < mem.NumBlocks("mix"); id++ {
		mb, err := mem.ReadBlock("mix", id)
		if err != nil {
			t.Fatal(err)
		}
		db, err := disk.ReadBlock("mix", id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mb.Rows, db.Rows) || !reflect.DeepEqual(mb.Zone, db.Zone) {
			t.Fatalf("block %d differs across backends", id)
		}
	}
	ms, ds = mem.Stats(), disk.Stats()
	if ms.BlocksRead != ds.BlocksRead || ms.RowsRead != ds.RowsRead {
		t.Errorf("read metering: mem %+v, disk %+v", ms, ds)
	}

	mm, err := mem.RowToBlock("mix")
	if err != nil {
		t.Fatal(err)
	}
	dm, err := disk.RowToBlock("mix")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm, dm) {
		t.Error("RowToBlock differs")
	}

	// Partial reorganization costs and results match too.
	b0, b1 := tl.Block(0).Rows, tl.Block(1).Rows
	regroup := append(append([]int32(nil), b1...), b0...)
	oldIDs := map[int]bool{0: true, 1: true}
	memBefore, diskBefore := mem.Stats(), disk.Stats()
	memSec, err = mem.ReplaceBlocks("mix", oldIDs, [][]int32{regroup}, 16)
	if err != nil {
		t.Fatal(err)
	}
	diskSec, err = disk.ReplaceBlocks("mix", oldIDs, [][]int32{regroup}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if memSec != diskSec {
		t.Errorf("ReplaceBlocks seconds: mem %g, disk %g", memSec, diskSec)
	}
	md := mem.Stats().Sub(memBefore)
	dd := disk.Stats().Sub(diskBefore)
	if md.BlocksWritten != dd.BlocksWritten || md.RowsWritten != dd.RowsWritten {
		t.Errorf("replace write deltas: mem %+v, disk %+v", md, dd)
	}
	if mem.NumBlocks("mix") != disk.NumBlocks("mix") {
		t.Error("block counts differ after replace")
	}
	if !reflect.DeepEqual(mem.Zones("mix"), disk.Zones("mix")) {
		t.Error("Zones differ after replace")
	}

	// Error paths.
	if _, err := disk.ReadBlock("mix", 9999); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := disk.ReadBlock("missing", 0); err == nil {
		t.Error("missing table read accepted")
	}
	if _, err := disk.ReplaceBlocks("missing", nil, nil, 16); err == nil {
		t.Error("missing table replace accepted")
	}
}

// TestStoreSwapDropsOldGeneration asserts that a generation swap
// (SetLayout or ReplaceBlocks) proactively removes the superseded
// generation's pages from the buffer pool: after fully re-reading the new
// generation, only its blocks are resident and no LRU evictions were
// needed to make room — the old pages were dropped, not squeezed out.
func TestStoreSwapDropsOldGeneration(t *testing.T) {
	tab := mixedTable(t, 100)
	tl := mixedLayout(t, tab)
	s, err := NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	readAll := func() {
		for id := 0; id < s.NumBlocks("mix"); id++ {
			if _, err := s.ReadBlock("mix", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	nblocks := s.NumBlocks("mix")
	if entries, _ := s.pool.Resident(); entries != nblocks {
		t.Fatalf("resident = %d, want %d", entries, nblocks)
	}

	// Swap 1: full SetLayout to a new generation.
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	readAll()
	if entries, _ := s.pool.Resident(); entries != nblocks {
		t.Errorf("after SetLayout swap: resident = %d, want %d (old generation must be dropped)", entries, nblocks)
	}

	// Swap 2: partial ReplaceBlocks generation.
	before := s.Stats()
	regroup := append(append([]int32(nil), tl.Block(1).Rows...), tl.Block(0).Rows...)
	if _, err := s.ReplaceBlocks("mix", map[int]bool{0: true, 1: true}, [][]int32{regroup}, 16); err != nil {
		t.Fatal(err)
	}
	readAll()
	if entries, _ := s.pool.Resident(); entries != s.NumBlocks("mix") {
		t.Errorf("after ReplaceBlocks swap: resident = %d, want %d", entries, s.NumBlocks("mix"))
	}
	// The cache is far larger than one generation: any eviction here would
	// mean superseded pages were squeezed out by pressure instead of being
	// invalidated at swap time.
	if d := s.Stats().Sub(before); d.CacheEvictions != 0 {
		t.Errorf("cache evictions = %d, want 0 (swap must invalidate, not rely on LRU)", d.CacheEvictions)
	}
	// Re-reading the current generation hits the cache.
	before = s.Stats()
	readAll()
	if d := s.Stats().Sub(before); d.CacheHits != int64(s.NumBlocks("mix")) || d.CacheMisses != 0 {
		t.Errorf("re-read of current generation: hits/misses = %d/%d, want %d/0", d.CacheHits, d.CacheMisses, s.NumBlocks("mix"))
	}
}

// TestStoreFooterOnlyPruning asserts the tentpole's zero-I/O pruning
// property: metadata and zone-map access never read page bytes; only
// ReadBlock does, and only on a cache miss.
func TestStoreFooterOnlyPruning(t *testing.T) {
	tab := mixedTable(t, 100)
	tl := mixedLayout(t, tab)
	s, err := NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}

	s.NumBlocks("mix")
	s.TotalBlocks()
	s.Tables()
	for _, z := range s.Zones("mix") {
		z.Column("i") // full zone-map sweep, as block pruning does
	}
	if got := s.Stats().BytesRead; got != 0 {
		t.Fatalf("BytesRead = %d after metadata-only access, want 0", got)
	}

	if _, err := s.ReadBlock("mix", 0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesRead <= 0 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after cold read: %+v", st)
	}
	if _, err := s.ReadBlock("mix", 0); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.BytesRead != st.BytesRead || st2.CacheHits != 1 || st2.BlocksRead != 2 {
		t.Fatalf("after warm read: %+v", st2)
	}
}

func TestStoreNoCacheRereadsEveryTime(t *testing.T) {
	tab := mixedTable(t, 50)
	tl := mixedLayout(t, tab)
	s, err := NewStore(t.TempDir(), 0, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlock("mix", 0); err != nil {
		t.Fatal(err)
	}
	first := s.Stats().BytesRead
	if _, err := s.ReadBlock("mix", 0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesRead != 2*first || st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Fatalf("capacity 0: %+v (first read %d bytes)", st, first)
	}
}

// TestStoreReopen covers crash recovery: a fresh Store over an existing
// data directory serves reads and metadata from the persisted segments.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	tab := mixedTable(t, 60)
	tl := mixedLayout(t, tab)
	s, err := NewStore(dir, 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewStore(dir, 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumBlocks("mix") != tl.NumBlocks() {
		t.Fatalf("reopened NumBlocks = %d", re.NumBlocks("mix"))
	}
	if !reflect.DeepEqual(re.Zones("mix"), layoutZones(tl)) {
		t.Error("reopened zones differ")
	}
	b, err := re.ReadBlock("mix", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Rows, tl.Block(1).Rows) {
		t.Error("reopened block content differs")
	}
	// Reorganization needs the base table, which only SetLayout provides.
	_, err = re.ReplaceBlocks("mix", map[int]bool{0: true}, nil, 16)
	if err == nil || !strings.Contains(err.Error(), "reopened") {
		t.Errorf("ReplaceBlocks on reopened table: %v", err)
	}
	if _, err := re.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	b0, b1 := tl.Block(0).Rows, tl.Block(1).Rows
	regroup := append(append([]int32(nil), b1...), b0...)
	if _, err := re.ReplaceBlocks("mix", map[int]bool{0: true, 1: true}, [][]int32{regroup}, 16); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsBadTableNames(t *testing.T) {
	tab := mixedTable(t, 10)
	tl := mixedLayout(t, tab)
	s, err := NewStore(t.TempDir(), 0, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"", "a/b", `a\b`} {
		if _, err := s.SetLayout(name, tl); err == nil {
			t.Errorf("table name %q accepted", name)
		}
	}
}

// TestStorePrepareCommitAbort pins the install protocol on a file store and
// a memory store: a prepared generation is invisible — to readers, to the
// write counters, to a store reopened on the directory — until Commit;
// Commit refuses once the table moved on; Abort leaves no trace.
func TestStorePrepareCommitAbort(t *testing.T) {
	tab := mixedTable(t, 80)
	tl := mixedLayout(t, tab)
	b0, b1 := tl.Block(0).Rows, tl.Block(1).Rows
	regroup := append(append([]int32(nil), b1...), b0...)
	oldIDs := map[int]bool{0: true, 1: true}
	for _, kind := range []string{"file", "mem"} {
		t.Run(kind, func(t *testing.T) {
			dir := ""
			s := NewMemStore(block.DefaultCostModel())
			if kind == "file" {
				var err error
				dir = t.TempDir()
				if s, err = NewStore(dir, 1<<20, block.DefaultCostModel()); err != nil {
					t.Fatal(err)
				}
			}
			defer s.Close()
			files := func() []string {
				if dir == "" {
					return nil
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				return names
			}
			if _, err := s.SetLayout("mix", tl); err != nil {
				t.Fatal(err)
			}
			installed, installedFiles := s.Stats(), files()
			blocks := s.NumBlocks("mix")

			// Two changes staged against the same generation.
			first, err := s.PrepareReplace("mix", oldIDs, [][]int32{regroup}, 16)
			if err != nil {
				t.Fatal(err)
			}
			second, err := s.PrepareLayout("mix", tl)
			if err != nil {
				t.Fatal(err)
			}
			if w := s.Stats(); w.BlocksWritten != installed.BlocksWritten || w.RowsWritten != installed.RowsWritten {
				t.Errorf("prepare charged writes: %+v", w)
			}
			if s.NumBlocks("mix") != blocks {
				t.Errorf("prepare changed the visible layout: %d blocks, was %d", s.NumBlocks("mix"), blocks)
			}
			if dir != "" {
				if got := files(); len(got) != 3 {
					t.Fatalf("files with two generations staged: %v", got)
				}
				// Reopened on a copy: reopening sweeps staged files.
				re, err := NewStore(copyDir(t, dir), 0, block.DefaultCostModel())
				if err != nil {
					t.Fatal(err)
				}
				if re.NumBlocks("mix") != blocks || len(re.Tables()) != 1 {
					t.Errorf("reopened store adopted a staged generation: tables %v, %d blocks", re.Tables(), re.NumBlocks("mix"))
				}
				re.Close()
			}

			// The first to commit wins; the other is refused and aborts clean.
			sec, err := first.Commit()
			if err != nil {
				t.Fatal(err)
			}
			first.Abort() // no-op after a commit
			after := s.Stats()
			if want := float64(after.BlocksWritten-installed.BlocksWritten) * s.Cost().BlockWriteSeconds; sec != want || sec == 0 {
				t.Errorf("commit charged %g s, counters say %g", sec, want)
			}
			blocktest.ReadLayout(t, s, "mix")
			if _, err := first.Commit(); err == nil {
				t.Error("second Commit of one prepared layout accepted")
			}
			if _, err := second.Commit(); err == nil || !strings.Contains(err.Error(), "changed since this one was prepared") {
				t.Errorf("commit against a superseded generation: %v", err)
			}
			second.Abort()
			second.Abort()
			if w := s.Stats(); w.BlocksWritten != after.BlocksWritten || w.RowsWritten != after.RowsWritten {
				t.Errorf("refused commit charged writes: %+v, was %+v", w, after)
			}
			if got := files(); len(got) != len(installedFiles) {
				t.Errorf("files after commit + abort: %v, want one segment as in %v", got, installedFiles)
			}
			blocktest.ReadLayout(t, s, "mix")
		})
	}
}

// copyDir copies the regular files of dir into a fresh temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range dirNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestStoreClosedRefusesCommit: once Close returns, neither a layout
// prepared before it nor one prepared after it can be committed, and the
// data directory keeps exactly the segments it had.
func TestStoreClosedRefusesCommit(t *testing.T) {
	tab := mixedTable(t, 80)
	tl := mixedLayout(t, tab)
	dir := t.TempDir()
	s, err := NewStore(dir, 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	installed := dirNames(t, dir)
	before, err := s.PrepareLayout("mix", tl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := before.Commit(); err == nil {
		t.Error("commit of a layout prepared before Close accepted")
	}
	before.Abort()
	if after, err := s.PrepareLayout("mix", tl); err == nil {
		if _, err := after.Commit(); err == nil {
			t.Error("commit of a layout prepared after Close accepted")
		}
		after.Abort()
	}
	if _, err := s.SetLayout("other", tl); err == nil {
		t.Error("SetLayout on a closed store accepted")
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, installed) {
		t.Errorf("data dir after Close: %v, want %v", got, installed)
	}
}

// TestStoreSweepsOrphanStaged: a staged file a crash left between prepare
// and commit is removed when the directory is reopened; the newest
// committed generation is adopted and installs work on top of it.
func TestStoreSweepsOrphanStaged(t *testing.T) {
	tab := mixedTable(t, 80)
	tl := mixedLayout(t, tab)
	dir := t.TempDir()
	s, err := NewStore(dir, 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	gen1 := dirNames(t, dir)[0]
	old, err := os.ReadFile(filepath.Join(dir, gen1))
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := tl.Block(0).Rows, tl.Block(1).Rows
	regroup := append(append([]int32(nil), b1...), b0...)
	if _, err := s.ReplaceBlocks("mix", map[int]bool{0: true, 1: true}, [][]int32{regroup}, 1<<20); err != nil {
		t.Fatal(err)
	}
	blocks := s.NumBlocks("mix")
	if blocks == tl.NumBlocks() {
		t.Fatal("generations not distinguishable by block count")
	}
	// A crash between prepare and commit leaves the staged file behind;
	// put the superseded generation back beside the newest one.
	if _, err := s.PrepareLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, gen1), old, 0o644); err != nil {
		t.Fatal(err)
	}
	planted := dirNames(t, dir)
	if len(planted) != 3 || !strings.HasSuffix(planted[2], ".seg"+stagedSuffix) {
		t.Fatalf("planted directory: %v", planted)
	}

	re, err := NewStore(dir, 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dirNames(t, dir); !reflect.DeepEqual(got, planted[:2]) {
		t.Errorf("directory after reopen: %v, want the committed generations %v", got, planted[:2])
	}
	if got := re.NumBlocks("mix"); got != blocks {
		t.Errorf("reopened store serves %d blocks, want the newest generation's %d", got, blocks)
	}
	if _, err := re.SetLayout("mix", tl); err != nil {
		t.Fatal(err)
	}
	blocktest.ReadLayout(t, re, "mix")
}
