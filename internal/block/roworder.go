package block

// RowOrder is the position geometry of one layout generation. A query's
// survivor sets are bitmaps over layout positions rather than base-table
// rows: block by block, in block-ID order, each block starting on a
// 64-bit word boundary. A block's filter masks are then its own words of
// the set, written in place by Scan.ScanBlock and read in place by
// Fold.FoldBlock, and the base-row order is recovered only where a result
// depends on it (through Rows).
//
// A RowOrder is built once per generation and immutable afterwards;
// callers must not mutate its slices.
type RowOrder struct {
	// WordStart holds NumBlocks+1 word offsets: block b owns words
	// [WordStart[b], WordStart[b+1]), ⌈rows_b/64⌉ of them, and its i-th
	// row is bit i of that range.
	WordStart []int
	// Rows maps each bit position to its base-table row, -1 for the
	// padding past a block's last row.
	Rows []int32
	// wordBlock maps each word to the block owning it.
	wordBlock []int32
}

// NewRowOrder lays out the blocks whose base rows blockRows lists,
// indexed by block ID.
func NewRowOrder(blockRows [][]int32) *RowOrder {
	o := &RowOrder{WordStart: make([]int, len(blockRows)+1)}
	for b, rows := range blockRows {
		o.WordStart[b+1] = o.WordStart[b] + (len(rows)+63)>>6
	}
	nw := o.Words()
	o.Rows = make([]int32, nw<<6)
	o.wordBlock = make([]int32, nw)
	for b, rows := range blockRows {
		lo, hi := o.WordStart[b], o.WordStart[b+1]
		for w := lo; w < hi; w++ {
			o.wordBlock[w] = int32(b)
		}
		pad := o.Rows[lo<<6+copy(o.Rows[lo<<6:], rows) : hi<<6]
		for i := range pad {
			pad[i] = -1
		}
	}
	return o
}

// Words returns the length in words of a position set over the layout.
func (o *RowOrder) Words() int { return o.WordStart[len(o.WordStart)-1] }

// Block returns block b's words of the position set set.
func (o *RowOrder) Block(set []uint64, b int) []uint64 {
	lo, hi := o.WordStart[b], o.WordStart[b+1]
	return set[lo:hi:hi]
}

// BlockOf returns the block holding position p.
func (o *RowOrder) BlockOf(p int) int { return int(o.wordBlock[p>>6]) }
