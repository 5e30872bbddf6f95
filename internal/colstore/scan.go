package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
)

// This file implements compressed-domain predicate evaluation: filters
// compiled by predicate.CompileScan run directly over a block's encoded
// column pages. Dictionary-string pages translate the literal into a code
// (or code range — dictionaries are sorted) and compare raw codes;
// FOR-packed int pages rebase the literal into the packed unsigned domain
// and compare packed words; delta/raw pages decode into pooled scratch,
// never into retained vectors; a column-vs-column leaf decodes both of its
// pages that way and compares them row by row. Null rows are cleared from
// each leaf's mask straight off the raw page null bitmap. The evaluation
// order and semantics mirror predicate.CompileMask exactly — including
// AND/OR child isolation and NOT IN null-literal handling — which is what
// makes a filter's mask byte-identical whether the backend evaluates it
// here or the engine evaluates it over the base table.

// TableScan is one query's compiled compressed scan over one table,
// pinned to the segment generation current at compile time. It is safe
// for concurrent use by parallel scan workers.
type TableScan struct {
	store     *Store
	table     string
	st        *tableState
	progs     []predicate.ScanNode // parallel to the CompileScan filters; nil = unsupported
	supported []bool
	colIdx    map[string]int
	// touched lists, ascending, the segment columns the pushed-down
	// filters name: the pages a block visit asks the pool for (none for an
	// unfiltered scan, which needs the row IDs only).
	touched []int
}

// CompileScan implements block.Backend: it compiles filters for
// compressed-domain evaluation against the table's current segment,
// normalizing every literal once per (query, table). Returns nil when the
// table has no segment.
func (s *Store) CompileScan(table string, filters []predicate.Predicate) block.Scan {
	st := s.state(table)
	if st == nil {
		return nil
	}
	seg := st.seg
	colIdx := make(map[string]int, len(seg.cols))
	for i, c := range seg.cols {
		colIdx[c.name] = i
	}
	kindOf := func(col string) (value.Kind, bool) {
		ci, ok := colIdx[col]
		if !ok {
			return value.KindNull, false
		}
		return seg.cols[ci].kind, true
	}
	ts := &TableScan{
		store:     s,
		table:     table,
		st:        st,
		progs:     make([]predicate.ScanNode, len(filters)),
		supported: make([]bool, len(filters)),
		colIdx:    colIdx,
	}
	reads := make([]bool, len(seg.cols))
	for i, f := range filters {
		if node, ok := predicate.CompileScan(f, kindOf); ok {
			ts.progs[i] = node
			ts.supported[i] = true
			f.VisitColumns(func(col string) {
				if ci, ok := colIdx[col]; ok {
					reads[ci] = true
				}
			})
		}
	}
	ts.touched = setColumns(reads)
	return ts
}

// setColumns lists the set indexes of reads, ascending.
func setColumns(reads []bool) []int {
	var cols []int
	for ci, r := range reads {
		if r {
			cols = append(cols, ci)
		}
	}
	return cols
}

// Supported implements block.Scan. Callers must not mutate the
// returned slice.
func (t *TableScan) Supported() []bool { return t.supported }

// Prefetch implements block.Scan: it queues background loads of the pages
// this scan's block visits will ask for. Best-effort and asynchronous. The
// queue stops where the pages' pool charge (footer metadata) reaches the
// pool's capacity — readahead past that evicts its own unread loads — so
// it is a no-op when the store has no buffer pool to park the result in.
func (t *TableScan) Prefetch(ids []int) {
	s, seg := t.store, t.st.seg
	if s.cacheBytes <= 0 {
		return
	}
	budget := s.cacheBytes
	var cp []int // callers reuse their candidate slices
	for _, id := range ids {
		if id < 0 || id >= seg.NumBlocks() {
			continue
		}
		if budget -= seg.pagesSize(id, t.touched); budget < 0 {
			break
		}
		cp = append(cp, id)
	}
	if len(cp) > 0 {
		s.pf.enqueue(prefetchTask{store: s, table: t.table, st: t.st, cols: t.touched, ids: cp})
	}
}

// ScanBlock implements block.Scan. It meters the block read
// exactly like Backend.ReadBlock, fetches the encoded block through the
// buffer pool, evaluates every supported filter with a non-nil mask over
// the encoded pages, and ORs matching rows into the global-row masks.
func (t *TableScan) ScanBlock(id int, masks [][]uint64) ([]int32, error) {
	seg := t.st.seg
	if id < 0 || id >= seg.NumBlocks() {
		return nil, fmt.Errorf("colstore: %s has no block %d", t.table, id)
	}
	t.store.blocksRead.Add(1)
	t.store.rowsRead.Add(int64(seg.BlockRows(id)))
	eb, err := t.store.encodedBlock(t.table, t.st, id, t.touched, false)
	if err != nil {
		return nil, err
	}
	nrows := len(eb.Block.Rows)
	sc := getScratch()
	defer putScratch(sc)
	nw := (nrows + 63) / 64
	for i, prog := range t.progs {
		if prog == nil || i >= len(masks) || masks[i] == nil {
			continue
		}
		local := sc.grabMask(nw)
		err := t.eval(prog, eb, nrows, local, sc)
		if err == nil {
			scatterMask(local, eb.Block.Rows, masks[i])
		}
		sc.releaseMask(local)
		if err != nil {
			return nil, err
		}
	}
	return eb.Block.Rows, nil
}

// eval evaluates one compiled node over the block's encoded pages into
// out, a zeroed local mask of the block's rows.
func (t *TableScan) eval(n predicate.ScanNode, eb *EncodedBlock, nrows int, out []uint64, sc *scratch) error {
	switch q := n.(type) {
	case predicate.ScanConst:
		if bool(q) {
			setAllBits(out, nrows)
		}
		return nil
	case *predicate.ScanAnd:
		if err := t.eval(q.Children[0], eb, nrows, out, sc); err != nil {
			return err
		}
		tmp := sc.grabMask(len(out))
		defer sc.releaseMask(tmp)
		for _, c := range q.Children[1:] {
			for w := range tmp {
				tmp[w] = 0
			}
			if err := t.eval(c, eb, nrows, tmp, sc); err != nil {
				return err
			}
			for w := range out {
				out[w] &= tmp[w]
			}
		}
		return nil
	case *predicate.ScanOr:
		if err := t.eval(q.Children[0], eb, nrows, out, sc); err != nil {
			return err
		}
		tmp := sc.grabMask(len(out))
		defer sc.releaseMask(tmp)
		for _, c := range q.Children[1:] {
			for w := range tmp {
				tmp[w] = 0
			}
			if err := t.eval(c, eb, nrows, tmp, sc); err != nil {
				return err
			}
			for w := range out {
				out[w] |= tmp[w]
			}
		}
		return nil
	case *predicate.ScanCmpCols:
		return t.evalCmpCols(q, eb, nrows, out, sc)
	case *predicate.ScanCmpInt:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	case *predicate.ScanCmpFloat:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	case *predicate.ScanCmpStr:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	case *predicate.ScanInInt:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	case *predicate.ScanInStr:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	case *predicate.ScanLike:
		return t.evalLeaf(q, q.Column, eb, nrows, out, sc)
	}
	return fmt.Errorf("colstore: unknown scan node %T", n)
}

// evalLeaf evaluates a single-column leaf over col's page and clears the
// page's null rows from out.
func (t *TableScan) evalLeaf(n predicate.ScanNode, col string, eb *EncodedBlock, nrows int, out []uint64, sc *scratch) error {
	pv, err := parsePage(eb.Cols[t.colIdx[col]], nrows)
	if err == nil {
		switch q := n.(type) {
		case *predicate.ScanCmpInt:
			err = evalCmpInt(pv, q.Op, q.Lit, nrows, out, sc)
		case *predicate.ScanCmpFloat:
			err = evalCmpFloat(pv, q.Op, q.Lit, nrows, out, sc)
		case *predicate.ScanCmpStr:
			err = evalCmpStr(pv, q.Op, q.Lit, nrows, out, sc)
		case *predicate.ScanInInt:
			err = evalInInt(pv, q, nrows, out, sc)
		case *predicate.ScanInStr:
			err = evalInStr(pv, q, nrows, out, sc)
		case *predicate.ScanLike:
			err = evalLike(pv, q, nrows, out, sc)
		}
	}
	if err != nil {
		return t.pageErr(col, err)
	}
	clearNullBits(pv.nulls, out)
	return nil
}

func (t *TableScan) pageErr(col string, err error) error {
	return fmt.Errorf("colstore: scan %s.%s: %w", t.table, col, err)
}

// evalCmpInt evaluates (col op lit) over an int page. Pages whose values
// order like their codes rebase lit into the packed unsigned domain —
// classifying it as below, inside, or above the page's value domain — and
// compare packed words; other pages decode into pooled scratch and compare.
func evalCmpInt(pv pageView, op predicate.Op, lit int64, nrows int, out []uint64, sc *scratch) error {
	v, err := pv.ints(nrows, sc)
	if err != nil {
		return err
	}
	if !v.packedDomain() {
		cmpInt64s(v.values(sc), op, lit, out)
		return nil
	}
	switch {
	case lit < v.frame: // below the domain: only Ne/Gt/Ge can match
		if op == predicate.Ne || op == predicate.Gt || op == predicate.Ge {
			setAllBits(out, nrows)
		}
	case uint64(lit)-uint64(v.frame) >= uint64(1)<<uint(v.width): // above: only Ne/Lt/Le
		if op == predicate.Ne || op == predicate.Lt || op == predicate.Le {
			setAllBits(out, nrows)
		}
	default:
		codes, off := v.unpack(sc), uint64(lit)-uint64(v.frame)
		switch op {
		case predicate.Eq:
			cmpPackedEq(codes, off, out)
		case predicate.Ne:
			cmpPackedNe(codes, off, out)
		case predicate.Lt:
			cmpPackedLt(codes, off, out)
		case predicate.Le:
			cmpPackedLt(codes, off+1, out)
		case predicate.Gt:
			cmpPackedGe(codes, off+1, out)
		default: // Ge
			cmpPackedGe(codes, off, out)
		}
	}
	return nil
}

// evalCmpFloat evaluates (col op lit) over a raw float page.
func evalCmpFloat(pv pageView, op predicate.Op, lit float64, nrows int, out []uint64, sc *scratch) error {
	v, err := pv.floats(nrows)
	if err != nil {
		return err
	}
	cmpFloat64s(v.values(sc), op, lit, out)
	return nil
}

// evalCmpCols evaluates (left op right) over the two columns' pages of one
// block: each side decodes into its own pooled scratch — ints and floats
// as values, strings as byte ranges of the page body — and the rows are
// compared element-wise by the kernel CompileMask runs over the base
// table. NULL on either side never matches, so both null bitmaps are
// cleared.
func (t *TableScan) evalCmpCols(q *predicate.ScanCmpCols, eb *EncodedBlock, nrows int, out []uint64, sc *scratch) error {
	lp, err := parsePage(eb.Cols[t.colIdx[q.Left]], nrows)
	if err != nil {
		return t.pageErr(q.Left, err)
	}
	rp, err := parsePage(eb.Cols[t.colIdx[q.Right]], nrows)
	if err != nil {
		return t.pageErr(q.Right, err)
	}
	rsc := getScratch() // a view lives until the next parse on its scratch
	defer putScratch(rsc)
	switch kind := encKind(lp.enc); {
	case kind != encKind(rp.enc):
		return t.pageErr(q.Right, fmt.Errorf("encoding 0x%02x does not pair with %s's 0x%02x", rp.enc, q.Left, lp.enc))
	case kind == value.KindFloat:
		l, err := lp.floats(nrows)
		if err != nil {
			return t.pageErr(q.Left, err)
		}
		r, err := rp.floats(nrows)
		if err != nil {
			return t.pageErr(q.Right, err)
		}
		predicate.MaskCompareCols(l.values(sc), r.values(rsc), q.Op, out)
	case kind == value.KindString:
		l, lc, err := lp.strRows(nrows, sc)
		if err != nil {
			return t.pageErr(q.Left, err)
		}
		r, rc, err := rp.strRows(nrows, rsc)
		if err != nil {
			return t.pageErr(q.Right, err)
		}
		for k := 0; k < nrows; k++ {
			if opMatches(q.Op, bytes.Compare(l.row(lc, k), r.row(rc, k))) {
				out[k>>6] |= 1 << (uint(k) & 63)
			}
		}
	default: // int pages; an unknown encoding fails in the parse
		l, err := lp.ints(nrows, sc)
		if err != nil {
			return t.pageErr(q.Left, err)
		}
		r, err := rp.ints(nrows, rsc)
		if err != nil {
			return t.pageErr(q.Right, err)
		}
		predicate.MaskCompareCols(l.values(sc), r.values(rsc), q.Op, out)
	}
	clearNullBits(lp.nulls, out)
	clearNullBits(rp.nulls, out)
	return nil
}

// evalCmpStr evaluates (col op lit) over a string page. Dict pages
// translate lit into a code bound via binary search over the sorted
// dictionary — without materializing a single string — and compare raw
// codes; raw pages compare bytes in place.
func evalCmpStr(pv pageView, op predicate.Op, lit string, nrows int, out []uint64, sc *scratch) error {
	v, codes, err := pv.strRows(nrows, sc)
	if err != nil {
		return err
	}
	if codes == nil {
		for k := 0; k < v.n; k++ {
			if opMatches(op, bytesCompareString(v.entry(k), lit)) {
				out[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		return nil
	}
	lo := sort.Search(v.nd, func(i int) bool { return bytesCompareString(v.entry(i), lit) >= 0 })
	exists := lo < v.nd && bytesCompareString(v.entry(lo), lit) == 0
	hi := lo
	if exists {
		hi++
	}
	// Codes are ranks in the sorted dictionary, so value order is code
	// order: v < lit ⇔ code < lo, v <= lit ⇔ code < hi, and so on.
	switch op {
	case predicate.Eq:
		if exists {
			cmpPackedEq(codes, uint64(lo), out)
		}
	case predicate.Ne:
		if exists {
			cmpPackedNe(codes, uint64(lo), out)
		} else {
			setAllBits(out, nrows)
		}
	case predicate.Lt:
		cmpPackedLt(codes, uint64(lo), out)
	case predicate.Le:
		cmpPackedLt(codes, uint64(hi), out)
	case predicate.Gt:
		cmpPackedGe(codes, uint64(hi), out)
	default: // Ge
		cmpPackedGe(codes, uint64(lo), out)
	}
	return nil
}

// evalInInt evaluates col [NOT] IN over an int page, decoding into pooled
// scratch and probing the precompiled set. Mirrors maskInList: NOT IN with
// a null literal matches nothing.
func evalInInt(pv pageView, q *predicate.ScanInInt, nrows int, out []uint64, sc *scratch) error {
	if q.Negate && q.HasNullLit {
		return nil
	}
	v, err := pv.ints(nrows, sc)
	if err != nil {
		return err
	}
	for i, x := range v.values(sc) {
		if _, found := q.Set[x]; found != q.Negate {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return nil
}

// evalInStr evaluates col [NOT] IN over a string page. Dict pages merge
// the sorted literal list against the sorted dictionary into a code
// membership bitset (both sides sorted — a single linear merge, no string
// materialization) and probe codes; raw pages probe the set per row.
func evalInStr(pv pageView, q *predicate.ScanInStr, nrows int, out []uint64, sc *scratch) error {
	if q.Negate && q.HasNullLit {
		return nil
	}
	v, codes, err := pv.strRows(nrows, sc)
	if err != nil {
		return err
	}
	if codes == nil {
		for k := 0; k < v.n; k++ {
			if _, found := q.Set[string(v.entry(k))]; found != q.Negate { // no alloc: map lookup special case
				out[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		return nil
	}
	member := sc.grabMember(v.nd)
	di := 0
	for _, lit := range q.Sorted {
		for di < v.nd && bytesCompareString(v.entry(di), lit) < 0 {
			di++
		}
		if di < v.nd && bytesCompareString(v.entry(di), lit) == 0 {
			member[di>>6] |= 1 << (uint(di) & 63)
		}
	}
	probeMembers(codes, member, q.Negate, out)
	return nil
}

// evalLike evaluates col [NOT] LIKE over a string page. Dict pages run the
// matcher once per dictionary entry — enumerating the matching codes into
// a bitset — then probe codes, so a block with d distinct values costs d
// matcher calls instead of n.
func evalLike(pv pageView, q *predicate.ScanLike, nrows int, out []uint64, sc *scratch) error {
	v, codes, err := pv.strRows(nrows, sc)
	if err != nil {
		return err
	}
	if codes == nil {
		for k := 0; k < v.n; k++ {
			if q.Match(string(v.entry(k))) != q.Negate {
				out[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		return nil
	}
	member := sc.grabMember(v.nd)
	for i := 0; i < v.nd; i++ {
		if q.Match(string(v.entry(i))) {
			member[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	probeMembers(codes, member, q.Negate, out)
	return nil
}

// probeMembers sets out's bit for every row whose (range-checked) code is
// in the member bitset, or is not when neg.
func probeMembers(codes, member []uint64, neg bool, out []uint64) {
	for i, c := range codes {
		if (member[c>>6]>>(c&63)&1 == 1) != neg {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// bytesCompareString is bytes.Compare against a string, avoiding the
// []byte(s) conversion.
func bytesCompareString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

func opMatches(op predicate.Op, c int) bool {
	switch op {
	case predicate.Eq:
		return c == 0
	case predicate.Ne:
		return c != 0
	case predicate.Lt:
		return c < 0
	case predicate.Le:
		return c <= 0
	case predicate.Gt:
		return c > 0
	default: // Ge
		return c >= 0
	}
}

// cmpPacked{Eq,Ne,Lt,Ge} are the packed-domain comparison kernels: tight
// branchless loops over unpacked code words, mirroring maskCompare's
// bool-to-bit pattern. Lt/Ge take an exclusive/inclusive bound, which is
// enough to express all six operators (Le x ⇔ Lt x+1, Gt x ⇔ Ge x+1).
func cmpPackedEq(vals []uint64, x uint64, out []uint64) {
	for i, v := range vals {
		var b uint64
		if v == x {
			b = 1
		}
		out[i>>6] |= b << (uint(i) & 63)
	}
}

func cmpPackedNe(vals []uint64, x uint64, out []uint64) {
	for i, v := range vals {
		var b uint64
		if v != x {
			b = 1
		}
		out[i>>6] |= b << (uint(i) & 63)
	}
}

func cmpPackedLt(vals []uint64, x uint64, out []uint64) {
	for i, v := range vals {
		var b uint64
		if v < x {
			b = 1
		}
		out[i>>6] |= b << (uint(i) & 63)
	}
}

func cmpPackedGe(vals []uint64, x uint64, out []uint64) {
	for i, v := range vals {
		var b uint64
		if v >= x {
			b = 1
		}
		out[i>>6] |= b << (uint(i) & 63)
	}
}

func cmpInt64s(vals []int64, op predicate.Op, lit int64, out []uint64) {
	switch op {
	case predicate.Eq:
		for i, v := range vals {
			var b uint64
			if v == lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Ne:
		for i, v := range vals {
			var b uint64
			if v != lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Lt:
		for i, v := range vals {
			var b uint64
			if v < lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Le:
		for i, v := range vals {
			var b uint64
			if v <= lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Gt:
		for i, v := range vals {
			var b uint64
			if v > lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	default: // Ge
		for i, v := range vals {
			var b uint64
			if v >= lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	}
}

func cmpFloat64s(vals []float64, op predicate.Op, lit float64, out []uint64) {
	switch op {
	case predicate.Eq:
		for i, v := range vals {
			var b uint64
			if v == lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Ne:
		for i, v := range vals {
			var b uint64
			if v != lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Lt:
		for i, v := range vals {
			var b uint64
			if v < lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Le:
		for i, v := range vals {
			var b uint64
			if v <= lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	case predicate.Gt:
		for i, v := range vals {
			var b uint64
			if v > lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	default: // Ge
		for i, v := range vals {
			var b uint64
			if v >= lit {
				b = 1
			}
			out[i>>6] |= b << (uint(i) & 63)
		}
	}
}

// clearNullBits clears null rows' bits straight off the raw page null
// bitmap: both bitmaps are little-endian by row, so eight null-mask bytes
// fold into one mask word.
func clearNullBits(nulls []byte, out []uint64) {
	if nulls == nil {
		return
	}
	nw := len(nulls) >> 3
	for w := 0; w < nw; w++ {
		out[w] &^= binary.LittleEndian.Uint64(nulls[w<<3:])
	}
	for bi := nw << 3; bi < len(nulls); bi++ {
		out[bi>>3] &^= uint64(nulls[bi]) << ((bi & 7) * 8)
	}
}

// setAllBits sets bits [0, n), leaving the last word's tail clear.
func setAllBits(mask []uint64, n int) {
	for w := 0; w < n>>6; w++ {
		mask[w] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		mask[n>>6] = (1 << uint(rem)) - 1
	}
}

// scatterMask ORs a block-local survivor mask into a global-row mask via
// the block's row IDs.
func scatterMask(local []uint64, rows []int32, global []uint64) {
	for w, word := range local {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			r := rows[base+b]
			global[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}
