// Package colstore implements the columnar segment store, the one
// block.Backend: one immutable segment per table layout — a file under the
// store's data directory, or the same bytes held in memory by a store
// opened without one — holding per-block column pages with lightweight
// encodings (dictionary for strings, frame-of-reference / delta
// bit-packing for ints, raw fallbacks) and a footer carrying per-block
// zone maps and page offsets. Every page and the footer are
// crc32-checksummed. Reads go through a sharded buffer pool (store.go /
// pool.go), whichever holds the bytes.
//
// Segment layout:
//
//	[magic u32 "MTSG"][version u32]
//	page … page                      one row-ID page + one page per column,
//	                                 per block; each framed as
//	                                 [len u32][crc32 u32][payload]
//	[footer payload]                 binary: schema echo, per-block row
//	                                 counts, zone maps, page offsets
//	[footerLen u32][footerCRC u32][magic u32]
//
// Zone maps live only in the footer, so pruning a block costs no page
// I/O; a block visit reads only the pages of the columns it names, each
// on its own, and ReadBlock the row-ID page (Segment.readPages).
package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/zonemap"
)

const (
	segMagic   uint32 = 0x4753_544d // "MTSG" little-endian
	segVersion uint32 = 1

	headerSize  = 8  // magic + version
	trailerSize = 12 // footerLen + footerCRC + magic
	frameSize   = 8  // page len + page crc

	// maxBlockRows bounds a block's row count; the footer parser rejects
	// larger claims so corrupted metadata cannot size huge allocations.
	maxBlockRows = 1 << 24
)

// colMeta echoes one schema column in the footer.
type colMeta struct {
	name string
	kind value.Kind
}

// pageMeta locates one page's payload inside the file.
type pageMeta struct {
	off    int64
	length int64 // payload length, excluding the 8-byte frame
}

// blockMeta is the footer's record for one block.
type blockMeta struct {
	nrows int
	zone  *zonemap.ZoneMap
	pages []pageMeta    // pages[0] = row IDs, pages[1+i] = column i
	bare  *EncodedBlock // the block with no page read: what a visit naming none gets
}

// EncodedBlock is an immutable snapshot of one block in wire form: the
// reconstructed block.Block (zone map from the footer; row IDs decoded
// from page 0 once ReadBlock asks) plus the raw, checksum-verified
// payloads of the column pages some visit has asked for so far. Scans and
// folds evaluate directly on these payloads; it is the one form the buffer
// pool caches. A wider snapshot shares the payloads of the one it extends —
// callers must not mutate them.
type EncodedBlock struct {
	Block *block.Block
	Cols  [][]byte // per segment column: [null section][enc u8][body]; nil = page not read
	size  int64    // decoded row IDs + payload bytes held: what the pool charges
}

// covers reports whether the snapshot holds the pages of cols.
func (eb *EncodedBlock) covers(cols []int) bool {
	for _, ci := range cols {
		if ci == rowIDPage && eb.Block.Rows == nil || ci != rowIDPage && eb.Cols[ci] == nil {
			return false
		}
	}
	return true
}

// WriteSegment writes tl as a segment file at path and syncs it. A crash
// mid-write leaves a partial file there, which is why a store writes under
// a staged name and renames at commit (Segment.publish).
func WriteSegment(path string, tl *block.TableLayout) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("colstore: write segment: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("colstore: close segment %s: %w", path, cerr)
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = encodeSegment(bw, tl); err != nil {
		return fmt.Errorf("colstore: write segment %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("colstore: write segment %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("colstore: sync segment %s: %w", path, err)
	}
	return nil
}

// encodeSegment writes tl's segment image — header, pages, footer, trailer
// — to dst. It is the one encoder: a file store hands it a temp file, a
// store without a directory a buffer it keeps.
func encodeSegment(dst io.Writer, tl *block.TableLayout) error {
	var head [headerSize]byte
	binary.LittleEndian.PutUint32(head[0:], segMagic)
	binary.LittleEndian.PutUint32(head[4:], segVersion)
	if _, err := dst.Write(head[:]); err != nil {
		return err
	}
	off := int64(headerSize)

	tbl := tl.Table()
	schema := tbl.Schema()
	ncols := schema.NumColumns()
	blocks := tl.Blocks()
	metas := make([]blockMeta, len(blocks))

	writePage := func(payload []byte) (pageMeta, error) {
		var frame [frameSize]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		if _, werr := dst.Write(frame[:]); werr != nil {
			return pageMeta{}, werr
		}
		if _, werr := dst.Write(payload); werr != nil {
			return pageMeta{}, werr
		}
		pm := pageMeta{off: off, length: int64(len(payload))}
		off += frameSize + int64(len(payload))
		return pm, nil
	}

	for bi, b := range blocks {
		meta := blockMeta{nrows: b.NumRows(), zone: b.Zone}
		// Page 0: row IDs.
		rowids := make([]int64, len(b.Rows))
		for i, r := range b.Rows {
			rowids[i] = int64(r)
		}
		w := &bufWriter{}
		encodeInts(w, rowids)
		pm, werr := writePage(w.buf)
		if werr != nil {
			return fmt.Errorf("block %d: %w", bi, werr)
		}
		meta.pages = append(meta.pages, pm)

		// One page per column: optional null mask, then the typed body.
		for ci := 0; ci < ncols; ci++ {
			w := &bufWriter{}
			nm := tbl.Nulls(ci)
			flags := make([]bool, len(b.Rows))
			for i, r := range b.Rows {
				flags[i] = nm != nil && nm[r]
			}
			encodeNulls(w, flags, len(b.Rows))
			switch schema.Column(ci).Type {
			case value.KindInt:
				raw := tbl.Ints(ci)
				vals := make([]int64, len(b.Rows))
				for i, r := range b.Rows {
					vals[i] = raw[r]
				}
				encodeInts(w, vals)
			case value.KindFloat:
				raw := tbl.Floats(ci)
				vals := make([]float64, len(b.Rows))
				for i, r := range b.Rows {
					vals[i] = raw[r]
				}
				encodeFloats(w, vals)
			default:
				raw := tbl.Strings(ci)
				vals := make([]string, len(b.Rows))
				for i, r := range b.Rows {
					vals[i] = raw[r]
				}
				encodeStrings(w, vals)
			}
			pm, werr := writePage(w.buf)
			if werr != nil {
				return fmt.Errorf("block %d: page %d: %w", bi, ci+1, werr)
			}
			meta.pages = append(meta.pages, pm)
		}
		metas[bi] = meta
	}

	// Footer.
	fw := &bufWriter{}
	fw.str(schema.Table())
	fw.uvarint(uint64(tbl.NumRows()))
	fw.uvarint(uint64(ncols))
	for ci := 0; ci < ncols; ci++ {
		fw.str(schema.Column(ci).Name)
		fw.u8(byte(schema.Column(ci).Type))
	}
	fw.uvarint(uint64(len(metas)))
	for _, m := range metas {
		fw.uvarint(uint64(m.nrows))
		ranges := m.zone.Ranges()
		for ci := 0; ci < ncols; ci++ {
			writeInterval(fw, ranges.Get(schema.Column(ci).Name))
		}
		fw.uvarint(uint64(len(m.pages)))
		for _, p := range m.pages {
			fw.uvarint(uint64(p.off))
			fw.uvarint(uint64(p.length))
		}
	}
	if _, err := dst.Write(fw.buf); err != nil {
		return fmt.Errorf("footer: %w", err)
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(fw.buf)))
	binary.LittleEndian.PutUint32(trailer[4:], crc32.ChecksumIEEE(fw.buf))
	binary.LittleEndian.PutUint32(trailer[8:], segMagic)
	if _, err := dst.Write(trailer[:]); err != nil {
		return fmt.Errorf("trailer: %w", err)
	}
	return nil
}

// writeInterval serializes one zone-map interval: tag 0 is the provably
// empty interval (an all-null column), tag 1 carries bounds.
func writeInterval(w *bufWriter, iv predicate.Interval) {
	if iv.Empty {
		w.u8(0)
		return
	}
	w.u8(1)
	w.value(iv.Min)
	w.value(iv.Max)
	var inc byte
	if iv.MinInc {
		inc |= 1
	}
	if iv.MaxInc {
		inc |= 2
	}
	w.u8(inc)
}

func readInterval(r *bufReader) predicate.Interval {
	switch r.u8() {
	case 0:
		return predicate.Interval{Empty: true}
	case 1:
		min := r.value()
		max := r.value()
		inc := r.u8()
		return predicate.Interval{Min: min, Max: max, MinInc: inc&1 != 0, MaxInc: inc&2 != 0}
	default:
		r.setErr("bad interval tag")
		return predicate.Interval{}
	}
}

// Segment is an open segment: parsed footer metadata plus the io.ReaderAt
// its pages are lazily read through — the segment file, or the encoder's
// bytes when the store keeps them in memory. A Segment is safe for
// concurrent reads.
type Segment struct {
	path      string // "" when the bytes live in memory
	name      string // for error messages
	r         io.ReaderAt
	table     string
	totalRows int
	cols      []colMeta
	blocks    []blockMeta
	zones     []*zonemap.ZoneMap
	pageEnd   int64 // first byte past the page region
}

// OpenSegment opens and validates a segment file: magic, version, footer
// checksum, and page-offset sanity. Block data is not touched.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: open segment: %w", err)
	}
	name := filepath.Base(path)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("colstore: segment %s: stat: %w", name, err)
	}
	s, err := loadSegment(name, f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.path = path
	return s, nil
}

// openSegmentBytes opens a segment image held in memory, through the same
// validation as a file.
func openSegmentBytes(name string, image []byte) (*Segment, error) {
	return loadSegment(name, bytes.NewReader(image), int64(len(image)))
}

func loadSegment(name string, f io.ReaderAt, size int64) (*Segment, error) {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("colstore: segment %s: "+format, append([]interface{}{name}, args...)...)
	}
	if size < headerSize+trailerSize {
		return nil, fail("file too small (%d bytes)", size)
	}
	var head [headerSize]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fail("read header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(head[0:]); m != segMagic {
		return nil, fail("bad magic 0x%08x", m)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != segVersion {
		return nil, fail("unsupported version %d", v)
	}
	var trailer [trailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, fail("read trailer: %w", err)
	}
	if m := binary.LittleEndian.Uint32(trailer[8:]); m != segMagic {
		return nil, fail("bad trailer magic 0x%08x", m)
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[0:]))
	if footerLen <= 0 || footerLen > size-headerSize-trailerSize {
		return nil, fail("implausible footer length %d", footerLen)
	}
	footer := make([]byte, footerLen)
	footerOff := size - trailerSize - footerLen
	if _, err := f.ReadAt(footer, footerOff); err != nil {
		return nil, fail("read footer: %w", err)
	}
	if crc := crc32.ChecksumIEEE(footer); crc != binary.LittleEndian.Uint32(trailer[4:]) {
		return nil, fail("footer checksum mismatch")
	}

	s := &Segment{name: name, r: f, pageEnd: footerOff}
	r := &bufReader{buf: footer}
	s.table = r.str()
	total := r.uvarint()
	if total > math.MaxInt32 {
		r.setErr("implausible row count")
	}
	s.totalRows = int(total)
	ncols := r.count(2)
	s.cols = make([]colMeta, ncols)
	for i := range s.cols {
		s.cols[i] = colMeta{name: r.str(), kind: value.Kind(r.u8())}
		if r.fail == nil && (s.cols[i].kind < value.KindInt || s.cols[i].kind > value.KindString) {
			r.setErr(fmt.Sprintf("column %d has bad kind %d", i, s.cols[i].kind))
		}
	}
	nblocks := r.count(2)
	s.blocks = make([]blockMeta, 0, nblocks)
	s.zones = make([]*zonemap.ZoneMap, 0, nblocks)
	rowSum := 0
	for bi := 0; bi < nblocks && r.fail == nil; bi++ {
		var m blockMeta
		nrows := r.uvarint()
		if nrows > maxBlockRows {
			r.setErr(fmt.Sprintf("block %d claims %d rows", bi, nrows))
			break
		}
		m.nrows = int(nrows)
		rowSum += m.nrows
		ranges := make(predicate.Ranges, ncols)
		for ci := 0; ci < ncols; ci++ {
			ranges[s.cols[ci].name] = readInterval(r)
		}
		m.zone = zonemap.FromRanges(ranges, m.nrows)
		m.bare = &EncodedBlock{Block: &block.Block{ID: bi, Zone: m.zone}}
		npages := r.count(2)
		if r.fail == nil && npages != 1+ncols {
			r.setErr(fmt.Sprintf("block %d has %d pages, want %d", bi, npages, 1+ncols))
			break
		}
		m.pages = make([]pageMeta, npages)
		for pi := range m.pages {
			poff := r.uvarint()
			plen := r.uvarint()
			if r.fail != nil {
				break
			}
			if poff < headerSize || plen > math.MaxInt32 ||
				int64(poff)+frameSize+int64(plen) > s.pageEnd {
				r.setErr(fmt.Sprintf("block %d page %d extends outside the page region", bi, pi))
				break
			}
			m.pages[pi] = pageMeta{off: int64(poff), length: int64(plen)}
		}
		s.blocks = append(s.blocks, m)
		s.zones = append(s.zones, m.zone)
	}
	if r.fail == nil && rowSum != s.totalRows {
		r.setErr(fmt.Sprintf("blocks cover %d rows, footer says %d", rowSum, s.totalRows))
	}
	if r.fail == nil && r.remaining() != 0 {
		r.setErr(fmt.Sprintf("%d trailing footer bytes", r.remaining()))
	}
	if r.fail != nil {
		return nil, fail("footer: %w", r.fail)
	}
	return s, nil
}

// Path returns the segment's file path, "" when it has none.
func (s *Segment) Path() string { return s.path }

// Table returns the table name recorded in the footer.
func (s *Segment) Table() string { return s.table }

// TotalRows returns the table row count recorded in the footer.
func (s *Segment) TotalRows() int { return s.totalRows }

// NumBlocks returns the number of blocks in the segment.
func (s *Segment) NumBlocks() int { return len(s.blocks) }

// BlockRows returns block id's row count, from the footer.
func (s *Segment) BlockRows(id int) int { return s.blocks[id].nrows }

// Zones returns the per-block zone maps parsed from the footer (shared
// slice, do not mutate). No page I/O is performed.
func (s *Segment) Zones() []*zonemap.ZoneMap { return s.zones }

// colIndex returns the index of the named column in the segment's schema
// echo.
func (s *Segment) colIndex(name string) (int, bool) {
	for i, c := range s.cols {
		if c.name == name {
			return i, true
		}
	}
	return -1, false
}

// publish gives a staged segment file its final name, the one NewStore
// adopts. Open handles follow the file.
func (s *Segment) publish() error {
	final := strings.TrimSuffix(s.path, stagedSuffix)
	if final == s.path {
		return nil // held in memory: no file to rename
	} else if err := os.Rename(s.path, final); err != nil {
		return fmt.Errorf("colstore: install segment %s: %w", final, err)
	}
	s.path, s.name = final, filepath.Base(final)
	return nil
}

// unlink removes the segment's file, when it has one. Open handles keep
// reading it until they are closed or collected.
func (s *Segment) unlink() {
	if s.path != "" {
		os.Remove(s.path)
	}
}

// Close releases the file handle, when there is one.
func (s *Segment) Close() error {
	if c, ok := s.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// readPage fetches and checksums one page's payload into a fresh buffer.
// The returned count is the on-disk bytes read (frame + payload).
func (s *Segment) readPage(bi, pi int) ([]byte, int64, error) {
	fail := func(format string, args ...interface{}) ([]byte, int64, error) {
		prefix := fmt.Sprintf("colstore: segment %s: block %d: page %d: ", s.name, bi, pi)
		return nil, 0, fmt.Errorf(prefix+format, args...)
	}
	pm := s.blocks[bi].pages[pi]
	buf := make([]byte, frameSize+pm.length)
	if _, err := s.r.ReadAt(buf, pm.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fail("truncated page read")
		}
		return fail("%w", err)
	}
	if l := binary.LittleEndian.Uint32(buf[0:]); int64(l) != pm.length {
		return fail("frame length %d disagrees with footer %d", l, pm.length)
	}
	payload := buf[frameSize:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[4:]) {
		return fail("checksum mismatch")
	}
	return payload, int64(len(buf)), nil
}

// ReadRowIDs reads and decodes only block id's row-ID page, returning the
// row indexes and the on-disk bytes read.
func (s *Segment) ReadRowIDs(id int) ([]int32, int64, error) {
	fail := func(err error) ([]int32, int64, error) {
		return nil, 0, fmt.Errorf("colstore: segment %s: block %d: page 0 (row IDs): %w", s.name, id, err)
	}
	payload, n, err := s.readPage(id, 0)
	if err != nil {
		return nil, 0, err
	}
	pv, err := bodyPage(payload)
	if err != nil {
		return fail(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	v, err := pv.ints(s.blocks[id].nrows, sc)
	if err != nil {
		return fail(err)
	}
	rows := make([]int32, v.n)
	for i, r := range v.values(sc) {
		if r < 0 || r > math.MaxInt32 {
			return fail(fmt.Errorf("row index %d out of range", r))
		}
		rows[i] = int32(r)
	}
	return rows, n, nil
}

// rowIDPage names the row-ID page in a page list; only ReadBlock asks for it.
const rowIDPage = -1

// readPages returns prev extended by the pages of cols (segment column
// indexes, or rowIDPage) it lacks, each read and checksummed on its own
// and left un-decoded but the row IDs, plus the on-disk bytes read.
func (s *Segment) readPages(id int, cols []int, prev *EncodedBlock) (*EncodedBlock, int64, error) {
	if prev == nil {
		prev = s.blocks[id].bare
	}
	eb := &EncodedBlock{Block: prev.Block, Cols: make([][]byte, len(s.cols)), size: prev.size}
	copy(eb.Cols, prev.Cols)
	var read int64
	for _, ci := range cols {
		switch {
		case ci == rowIDPage && eb.Block.Rows == nil:
			rows, n, err := s.ReadRowIDs(id)
			if err != nil {
				return nil, 0, err
			}
			eb.Block = &block.Block{ID: id, Rows: rows, Zone: eb.Block.Zone}
			eb.size, read = eb.size+int64(len(rows))*4, read+n
		case ci != rowIDPage && eb.Cols[ci] == nil:
			payload, n, err := s.readPage(id, 1+ci)
			if err != nil {
				return nil, 0, err
			}
			eb.Cols[ci] = payload
			eb.size, read = eb.size+int64(len(payload)), read+n
		}
	}
	return eb, read, nil
}

// pagesSize is the size of a snapshot of block id holding exactly the
// pages of cols, from the footer alone.
func (s *Segment) pagesSize(id int, cols []int) int64 {
	var size int64
	for _, ci := range cols {
		size += s.blocks[id].pages[1+ci].length
	}
	return size
}

// ValidateAgainst cross-checks the footer's schema echo against the live
// table schema, catching a segment opened for the wrong table shape.
func (s *Segment) ValidateAgainst(schema *relation.Schema) error {
	if s.table != schema.Table() {
		return fmt.Errorf("colstore: segment %s: holds table %q, want %q",
			s.name, s.table, schema.Table())
	}
	if len(s.cols) != schema.NumColumns() {
		return fmt.Errorf("colstore: segment %s: %d columns, schema has %d",
			s.name, len(s.cols), schema.NumColumns())
	}
	for i, c := range s.cols {
		sc := schema.Column(i)
		if c.name != sc.Name || c.kind != sc.Type {
			return fmt.Errorf("colstore: segment %s: column %d is %s %s, schema says %s %s",
				s.name, i, c.name, c.kind, sc.Name, sc.Type)
		}
	}
	return nil
}
