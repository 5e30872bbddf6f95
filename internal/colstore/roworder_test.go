package colstore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
)

// The tests compare scans and folds against references computed over the
// base table, in base-row order. These helpers carry masks between that
// order and the block-local words ScanBlock and FoldBlock work on.

// scanRowMasks is ScanBlock for a test holding base-row masks (parallel to
// the filters; nil entries are skipped): it scans block id into fresh
// block-local masks, fails if any bit at or beyond the block's row count
// is set, and ORs each match into its base-row mask. It returns the
// block's row count.
func scanRowMasks(scan block.Scan, id int, rowMasks [][]uint64) (int, error) {
	order, err := scan.RowOrder()
	if err != nil {
		return 0, err
	}
	local := make([][]uint64, len(rowMasks))
	if id < 0 || id >= len(order.WordStart)-1 {
		return scan.ScanBlock(id, local) // out of range: the backend's error
	}
	for i, m := range rowMasks {
		if m != nil {
			local[i] = make([]uint64, order.WordStart[id+1]-order.WordStart[id])
		}
	}
	n, err := scan.ScanBlock(id, local)
	if err != nil {
		return n, err
	}
	rows := order.Rows[order.WordStart[id]<<6:]
	for i, m := range local {
		for w, word := range m {
			for ; word != 0; word &= word - 1 {
				k := w<<6 | bits.TrailingZeros64(word)
				if k >= n {
					return n, fmt.Errorf("block %d: mask %d sets bit %d of a %d-row block", id, i, k, n)
				}
				r := rows[k]
				rowMasks[i][r>>6] |= 1 << (uint(r) & 63)
			}
		}
	}
	return n, nil
}

// blockWords gathers block id's words of the base-row mask surv: bit i is
// the block's i-th row's. Rows past surv's end count as not surviving.
func blockWords(order *block.RowOrder, id int, surv []uint64) []uint64 {
	lo, hi := order.WordStart[id], order.WordStart[id+1]
	local := make([]uint64, hi-lo)
	for k, r := range order.Rows[lo<<6 : hi<<6] {
		if r >= 0 && int(r>>6) < len(surv) && surv[r>>6]>>(uint(r)&63)&1 == 1 {
			local[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	return local
}

// positionSet lays the base-row mask surv out by order's positions.
func positionSet(order *block.RowOrder, surv []uint64) []uint64 {
	set := make([]uint64, 0, order.Words())
	for id := 0; id < len(order.WordStart)-1; id++ {
		set = append(set, blockWords(order, id, surv)...)
	}
	return set
}

// mustRowOrder returns the position geometry of the table's current
// generation.
func mustRowOrder(t testing.TB, s *Store, table string) *block.RowOrder {
	t.Helper()
	order, err := s.rowOrder(s.state(table))
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// foldRowMask is FoldBlock for a test holding its survivors as a base-row
// mask: it folds block id's words of surv, laid out by the generation the
// fold is pinned to.
func foldRowMask(fold block.Fold, id int, surv []uint64, gs *block.GroupedStates) error {
	f := fold.(*TableFold)
	order, err := f.store.rowOrder(f.st)
	if err != nil {
		return err
	}
	if id < 0 || id >= len(order.WordStart)-1 {
		return fold.FoldBlock(id, nil, gs) // out of range: the backend's error
	}
	return fold.FoldBlock(id, blockWords(order, id, surv), gs)
}

// TestScanLeavesPaddingClear: on blocks whose row count is not a multiple
// of 64, in a permuted row order, a filter that sets every row —
// constant-true, an OR, a negated leaf, a column pair — fills exactly the
// block's rows: each real position matches FillMask at its row, and no
// padding bit past a block's last row is ever set, so the words of a
// position set hold survivors only.
func TestScanLeavesPaddingClear(t *testing.T) {
	const n = 400
	tab := scanTable(t, n)
	perm := rand.New(rand.NewSource(3)).Perm(n)
	var groups [][]int32
	off := 0
	for _, size := range []int{37, 100, 1, 63, 65, 127, 7} {
		var g []int32
		for _, r := range perm[off : off+size] {
			g = append(g, int32(r))
		}
		groups, off = append(groups, g), off+size
	}
	pair := func(l string, op predicate.Op, r string) predicate.Predicate {
		return &predicate.ColumnComparison{Left: l, Op: op, Right: r}
	}
	preds := []predicate.Predicate{
		predicate.True(),
		predicate.False(),
		predicate.NewOr(predicate.NewComparison("i_for", predicate.Ge, value.Int(0)), predicate.True()),
		predicate.NewOr(predicate.NewComparison("i_delta", predicate.Ge, value.Int(0)),
			predicate.NewComparison("f", predicate.Lt, value.Float(1e9))),
		predicate.NewComparison("i_raw", predicate.Ne, value.Int(7)),
		predicate.NewComparison("s_dict", predicate.Ne, value.String("zz")),
		predicate.NewComparison("s_raw", predicate.Ne, value.String("")),
		predicate.NewNotIn("i_for", value.Int(-1)),
		predicate.NewNotIn("s_dict", value.String("nope")),
		predicate.NewNotLike("s_raw", "x%"),
		predicate.NewNotLike("s_dict", "x%"),
		pair("f", predicate.Ne, "f2"),
		pair("s_dict", predicate.Le, "s_mix"),
		pair("i_for", predicate.Ge, "i_delta"),
	}
	s := newScanStore(t, tab, groups, 1<<20)
	scan := s.CompileScan("sc", preds)
	order, err := scan.RowOrder()
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]uint64, len(preds))
	for i := range sets {
		sets[i] = make([]uint64, order.Words())
	}
	masks := make([][]uint64, len(preds))
	for id := 0; id < s.NumBlocks("sc"); id++ {
		for i := range masks {
			masks[i] = order.Block(sets[i], id)
		}
		rows, err := scan.ScanBlock(id, masks)
		if err != nil {
			t.Fatal(err)
		}
		if rows != len(groups[id]) || rows%64 == 0 {
			t.Fatalf("fixture: block %d holds %d rows", id, rows)
		}
	}
	for i, p := range preds {
		want := wantMask(tab, p)
		for k, r := range order.Rows {
			got := sets[i][k>>6]>>(uint(k)&63)&1 == 1
			switch {
			case r < 0 && got:
				t.Errorf("%s: padding position %d (block %d) set", p, k, order.BlockOf(k))
			case r >= 0 && got != (want[r>>6]>>(uint(r)&63)&1 == 1):
				t.Errorf("%s: position %d (row %d) = %v, FillMask %v", p, k, r, got, !got)
			}
		}
	}
}
