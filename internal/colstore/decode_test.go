package colstore

import (
	"fmt"

	"mto/internal/block"
	"mto/internal/value"
)

// This file is the full decoder, kept for tests only: every page of a
// block read and decoded into typed vectors. It is the oracle the page
// sweep, the encoders' round trips, the segment round trip and the
// corruption sweeps hold the page views and kernels to. Production reads
// go through the views in page.go and never materialize a whole block.

// columnData is one decoded column page: the typed vector for the block's
// rows plus an optional null mask (nil when the block has no nulls in the
// column).
type columnData struct {
	Kind   value.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
}

// blockData is one fully decoded block: the reconstructed block.Block
// (row IDs + footer zone map), the decoded column vectors, and the on-disk
// bytes read to materialize it.
type blockData struct {
	Block *block.Block
	Cols  []columnData
	Bytes int64
}

// readBlockData reads all of block id's pages through Segment.readPages,
// then decodes each column page.
func readBlockData(s *Segment, id int) (*blockData, error) {
	if id < 0 || id >= s.NumBlocks() {
		return nil, fmt.Errorf("colstore: segment %s: no block %d", s.name, id)
	}
	all := []int{rowIDPage}
	for ci := range s.cols {
		all = append(all, ci)
	}
	eb, n, err := s.readPages(id, all, nil)
	if err != nil {
		return nil, err
	}
	bd := &blockData{Block: eb.Block, Cols: make([]columnData, len(s.cols)), Bytes: n}
	for ci, payload := range eb.Cols {
		cd, err := decodeColumn(payload, s.cols[ci].kind, s.blocks[id].nrows)
		if err != nil {
			return nil, fmt.Errorf("colstore: segment %s: block %d: page %d (column %s): %w",
				s.name, id, 1+ci, s.cols[ci].name, err)
		}
		bd.Cols[ci] = cd
	}
	return bd, nil
}

// nullFlags expands the null bitmap into one flag per row; nil means no
// nulls.
func (pv pageView) nullFlags(nrows int) []bool {
	if pv.nulls == nil {
		return nil
	}
	out := make([]bool, nrows)
	for i := range out {
		out[i] = pv.isNull(i)
	}
	return out
}

// decodeColumn fully decodes one column page into retained vectors.
func decodeColumn(payload []byte, kind value.Kind, nrows int) (columnData, error) {
	cd := columnData{Kind: kind}
	pv, err := parsePage(payload, nrows)
	if err != nil {
		return cd, err
	}
	cd.Nulls = pv.nullFlags(nrows)
	sc := getScratch()
	defer putScratch(sc)
	switch kind {
	case value.KindInt:
		cd.Ints, err = decodeInts(pv, nrows, sc)
	case value.KindFloat:
		cd.Floats, err = decodeFloats(pv, nrows)
	default:
		cd.Strs, err = decodeStrings(pv, nrows, sc)
	}
	return cd, err
}

func decodeInts(pv pageView, nrows int, sc *scratch) ([]int64, error) {
	v, err := pv.ints(nrows, sc)
	if err != nil {
		return nil, err
	}
	out := make([]int64, v.n)
	v.decodeInto(out, sc)
	return out, nil
}

func decodeFloats(pv pageView, nrows int) ([]float64, error) {
	v, err := pv.floats(nrows)
	if err != nil {
		return nil, err
	}
	out := make([]float64, v.n)
	v.decodeInto(out)
	return out, nil
}

// decodeStrings materializes each entry once, so the rows of a dict page
// share their dictionary entry's string.
func decodeStrings(pv pageView, nrows int, sc *scratch) ([]string, error) {
	v, err := pv.strs(nrows, sc)
	if err != nil {
		return nil, err
	}
	codes, err := v.codes(sc)
	if err != nil {
		return nil, err
	}
	entries := make([]string, v.nd)
	for i := range entries {
		entries[i] = string(v.entry(i))
	}
	if codes == nil {
		return entries, nil
	}
	out := make([]string, v.n)
	for i, c := range codes {
		out[i] = entries[c]
	}
	return out, nil
}
