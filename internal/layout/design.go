// Package layout defines the physical-design abstraction shared by all
// blocking strategies the paper compares (§6.1.3): a Design assigns each
// table's rows to ordered row groups (which the block layer chops into
// blocks) and routes queries to the group subset they must read. The
// user-tuned sort-key Baseline and Z-ordering live here; the
// instance-optimized strategies (STO and MTO) are produced by internal/core
// and expressed as Designs too.
package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
)

// Router maps a query to the row-group indexes that must be read for one
// table, given each alias's filter prepared for region tests (zones, by
// alias; see qdtree.Tree.Route). A nil Router means every group is always
// needed (sort-based layouts rely purely on zone maps for skipping).
type Router func(q *workload.Query, zones map[string]*predicate.Zone) []int

// TableDesign is one table's physical design.
type TableDesign struct {
	table  *relation.Table
	groups [][]int32
	route  Router

	// set by Install:
	groupBlocks [][]int // group index → block IDs
	allBlocks   []int   // every block ID once, in group order
}

// setGroupBlocks records the group → block mapping and every block once.
func (td *TableDesign) setGroupBlocks(groupBlocks [][]int) {
	var all blockUnion
	for _, ids := range groupBlocks {
		all.add(ids)
	}
	td.groupBlocks, td.allBlocks = groupBlocks, all.ids
}

// blockUnion collects block IDs, each once, in first-seen order. Groups are
// consecutive block runs, so over ascending groups an ID is new exactly when
// it exceeds the last, and one equal to the last is the block two groups
// share; any other order scans ids.
type blockUnion struct {
	ids      []int
	unsorted bool
}

func (u *blockUnion) add(ids []int) {
	for _, id := range ids {
		n := len(u.ids)
		if n > 0 && id == u.ids[n-1] {
			continue
		}
		if u.unsorted || (n > 0 && id < u.ids[n-1]) {
			if slices.Contains(u.ids, id) {
				continue
			}
			u.unsorted = true
		}
		u.ids = append(u.ids, id)
	}
}

// Groups returns the row groups (shared, do not mutate).
func (td *TableDesign) Groups() [][]int32 { return td.groups }

// Design is a complete multi-table physical design.
type Design struct {
	Name      string
	BlockSize int
	tables    map[string]*TableDesign
	installed bool
}

// NewDesign returns an empty design.
func NewDesign(name string, blockSize int) *Design {
	return &Design{Name: name, BlockSize: blockSize, tables: map[string]*TableDesign{}}
}

// SetTable registers a table's groups and router. Passing route == nil
// means queries always read every group (zone-map-only skipping).
func (d *Design) SetTable(t *relation.Table, groups [][]int32, route Router) {
	d.tables[t.Schema().Table()] = &TableDesign{table: t, groups: groups, route: route}
	d.installed = false
}

// Table returns the named table's design, or nil.
func (d *Design) Table(name string) *TableDesign { return d.tables[name] }

// Tables returns the designed table names (unordered).
func (d *Design) Tables() []string {
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	return out
}

// Install materializes the design into the store. The groups are laid out
// consecutively (the paper's BID order: group i's records precede group
// i+1's, §6.1.2) and the resulting record stream is packed into full blocks
// of BlockSize rows, so the design never inflates the table's block count.
// A block straddling a group boundary belongs to both groups and is read
// when either is needed. When jitter is non-nil, blocks get non-uniform
// capacities emulating Cloud DW; minFill sets the smallest fill fraction.
func (d *Design) Install(store block.Backend, jitter *rand.Rand, minFill float64) (writeSeconds float64, err error) {
	total := 0.0
	// Install tables in name order: the jitter draws are consumed from one
	// shared rng, so iteration order must be deterministic for repeated
	// installs (and hence persisted segment files) to be identical.
	names := make([]string, 0, len(d.tables))
	for name := range d.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		td := d.tables[name]
		tl, groupBlocks, err := buildTableLayout(td, d.BlockSize, jitter, minFill)
		if err != nil {
			return 0, fmt.Errorf("layout: install %s: %w", name, err)
		}
		sec, err := block.CommitNow(store.PrepareLayout(name, tl))
		if err != nil {
			return 0, fmt.Errorf("layout: install %s: %w", name, err)
		}
		td.setGroupBlocks(groupBlocks)
		total += sec
	}
	d.installed = true
	return total, nil
}

// buildTableLayout packs a table design's groups into one BID-ordered
// record stream, chops the stream into blocks, and computes the group →
// block mapping from each group's stream extent. It does not mutate td.
func buildTableLayout(td *TableDesign, blockSize int, jitter *rand.Rand, minFill float64) (*block.TableLayout, [][]int, error) {
	// Concatenate groups into one BID-ordered stream.
	stream := make([]int32, 0, td.table.NumRows())
	for _, g := range td.groups {
		stream = append(stream, g...)
	}
	var tl *block.TableLayout
	var err error
	if jitter != nil {
		tl, err = block.NewJitteredTableLayout(td.table, [][]int32{stream}, blockSize, minFill, jitter)
	} else {
		tl, err = block.NewTableLayout(td.table, [][]int32{stream}, blockSize)
	}
	if err != nil {
		return nil, nil, err
	}
	// Map each group to the blocks overlapping its stream extent.
	starts := make([]int, tl.NumBlocks()+1)
	for i := 0; i < tl.NumBlocks(); i++ {
		starts[i+1] = starts[i] + tl.Block(i).NumRows()
	}
	groupBlocks := make([][]int, len(td.groups))
	off := 0
	bi := 0
	for gi, g := range td.groups {
		lo, hi := off, off+len(g) // [lo, hi) in stream coordinates
		for bi > 0 && starts[bi] > lo {
			bi--
		}
		for b := bi; b < tl.NumBlocks() && starts[b] < hi; b++ {
			if starts[b+1] > lo {
				groupBlocks[gi] = append(groupBlocks[gi], b)
			}
		}
		// Advance bi to the first block containing hi-1 for the next
		// group (it may be shared).
		for bi < tl.NumBlocks()-1 && starts[bi+1] <= hi-1 {
			bi++
		}
		off = hi
	}
	return tl, groupBlocks, nil
}

// PackTable packs groups of t the way Install would — one BID-ordered
// stream chopped into full blocks — and returns the layout with its group →
// block mapping, touching neither the design nor a store.
func (d *Design) PackTable(t *relation.Table, groups [][]int32) (*block.TableLayout, [][]int, error) {
	return buildTableLayout(&TableDesign{table: t, groups: groups}, d.BlockSize, nil, 0)
}

// SetTableBlocks registers a table design whose blocks already exist in
// the store: reorganization calls it right after the store committed the
// prepared layout, so it cannot fail. The design must be installed and
// groupBlocks must map every group to its block IDs in the store's new
// numbering; staging established both.
func (d *Design) SetTableBlocks(t *relation.Table, groups [][]int32, route Router, groupBlocks [][]int) {
	td := &TableDesign{table: t, groups: groups, route: route}
	td.setGroupBlocks(groupBlocks)
	d.tables[t.Schema().Table()] = td
}

// BlocksFor returns the block IDs of the named table that q, whose aliases'
// zones the router reads, must read, or (nil, false) when the query does
// not touch the table at all. The caller owns the returned slice. Install
// must have been called.
func (d *Design) BlocksFor(q *workload.Query, table string, zones map[string]*predicate.Zone) ([]int, bool) {
	td := d.tables[table]
	if td == nil || !q.TouchesTable(table) {
		return nil, false
	}
	if !d.installed {
		panic("layout: BlocksFor before Install")
	}
	if td.route == nil {
		return slices.Clone(td.allBlocks), true
	}
	out := blockUnion{ids: make([]int, 0, len(td.allBlocks))}
	for _, gi := range td.route(q, zones) {
		if gi >= 0 && gi < len(td.groupBlocks) {
			out.add(td.groupBlocks[gi])
		}
	}
	return out.ids, true
}

// GroupBlocks exposes the group → block-ID mapping for one table (after
// Install); reorganization uses it to locate a qd-tree leaf's blocks.
func (d *Design) GroupBlocks(table string) [][]int {
	td := d.tables[table]
	if td == nil {
		return nil
	}
	return td.groupBlocks
}

// Clone returns a copy of the design that can be mutated (tables replaced,
// re-installed into another store) without affecting the original. Row
// groups are shared read-only; SetTable replaces them wholesale.
func (d *Design) Clone() *Design {
	out := NewDesign(d.Name, d.BlockSize)
	for name, td := range d.tables {
		out.tables[name] = &TableDesign{
			table:       td.table,
			groups:      td.groups,
			route:       td.route,
			groupBlocks: td.groupBlocks,
			allBlocks:   td.allBlocks,
		}
	}
	out.installed = d.installed
	return out
}
