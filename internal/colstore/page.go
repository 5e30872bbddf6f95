package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"mto/internal/value"
)

// This file is the page reader: the one place that parses the encoded page
// layouts encode.go writes. parsePage splits a column payload at its fixed
// prefix (null section, encoding byte); pageView.ints / floats / strs turn
// the body into a typed, bounds-checked view. Every count, bit width,
// payload length and dictionary code is validated here, so the kernels in
// scan.go, aggregate.go and grouped.go are plain loops over a view.
//
// Views allocate nothing: an int or string view and every run it decodes
// live in the scratch it was parsed with, so a view (and every slice it
// returned) is valid only until the next parse on the same scratch. A
// kernel that needs two pages at once takes a second scratch.

// pageView is a column page split at its fixed prefix: the raw null bitmap
// (nil when the block has no nulls in the column), the encoding byte, and
// the encoded body.
type pageView struct {
	nulls []byte
	enc   byte
	body  []byte
}

func parsePage(payload []byte, nrows int) (pageView, error) {
	r := &bufReader{buf: payload}
	var pv pageView
	switch r.u8() {
	case 0:
	case 1:
		pv.nulls = r.bytes((nrows + 7) / 8)
	default:
		r.setErr("bad null-mask flag")
	}
	pv.enc = r.u8()
	if r.fail != nil {
		return pv, r.fail
	}
	pv.body = r.buf[r.off:]
	return pv, nil
}

// bodyPage views a payload with no null section (the row-ID page).
func bodyPage(payload []byte) (pageView, error) {
	if len(payload) == 0 {
		return pageView{}, fmt.Errorf("colstore: empty page")
	}
	return pageView{enc: payload[0], body: payload[1:]}, nil
}

// isNull reports whether row i is null.
func (pv pageView) isNull(i int) bool {
	return pv.nulls != nil && pv.nulls[i>>3]>>(uint(i)&7)&1 == 1
}

// encKind maps a page encoding to the column kind it stores (KindNull for
// an unknown byte).
func encKind(enc byte) value.Kind {
	switch enc {
	case encIntRaw, encIntFOR, encIntDelta:
		return value.KindInt
	case encFloatRaw:
		return value.KindFloat
	case encStrRaw, encStrDict:
		return value.KindString
	}
	return value.KindNull
}

// checkCount validates a page's element count against the footer's row
// count for the block, so corrupted counts error out before any
// allocation sized by them.
func (r *bufReader) checkCount(n, want int) bool {
	if r.fail != nil {
		return false
	}
	if n != want {
		r.setErr(fmt.Sprintf("page holds %d values, footer says %d", n, want))
		return false
	}
	return true
}

// finish requires the body to be fully consumed and returns the reader's
// error.
func (r *bufReader) finish() error {
	if r.fail == nil && r.remaining() != 0 {
		r.setErr(fmt.Sprintf("%d trailing bytes", r.remaining()))
	}
	return r.fail
}

// packedRun is a bit-packed run of count width-bit codes whose payload
// length has been checked against count.
type packedRun struct {
	count  int
	width  int
	packed []byte
	mask   uint64 // the low width bits
}

// packedRun reads count width-bit codes off the body.
func (r *bufReader) packedRun(count, width int) packedRun {
	if r.fail == nil && width > 64 {
		r.setErr(fmt.Sprintf("bad bit width %d", width))
	}
	return packedRun{
		count:  count,
		width:  width,
		packed: r.bytes((count*width + 7) / 8),
		mask:   uint64(1)<<uint(width) - 1,
	}
}

// sparse reports whether a reader of pop of the run's codes should
// random-access them with codeAt, which the run must allow, instead of
// unpacking the whole run.
func (p *packedRun) sparse(pop int) bool {
	return pop*4 < p.count && p.width <= 57 && len(p.packed) >= 8
}

// codeAt extracts code i by random access, branch-free: a code of at most
// 57 bits lies inside the 8-byte word loaded at its first byte, or — where
// that load would run off the payload — inside the payload's last 8 bytes.
// sparse guards both preconditions (width <= 57, an 8-byte payload).
func (p *packedRun) codeAt(i int) uint64 {
	bp := i * p.width
	bi := min(bp>>3, len(p.packed)-8)
	return binary.LittleEndian.Uint64(p.packed[bi:]) >> (uint(bp-bi<<3) & 63) & p.mask
}

// unpack unpacks the whole run into sc.
func (p *packedRun) unpack(sc *scratch) []uint64 {
	codes := sc.grabWords(p.count)
	unpackBitsInto(codes, p.packed, p.width)
	return codes
}

// intView is a parsed int page. Raw and FOR pages are n random-access
// codes with value = frame + code (a raw page is frame 0, width 64); a
// delta page is a first value plus n-1 packed deltas, each offset by frame.
type intView struct {
	packedRun
	n     int
	delta bool
	first int64
	frame int64
}

func (pv pageView) ints(nrows int, sc *scratch) (*intView, error) {
	r := &bufReader{buf: pv.body}
	v := &sc.intv
	*v = intView{}
	switch pv.enc {
	case encIntRaw:
		v.n = r.count(8)
		if r.checkCount(v.n, nrows) {
			v.packedRun = r.packedRun(v.n, 64)
		}
	case encIntFOR:
		v.n = r.count(0)
		if r.checkCount(v.n, nrows) {
			v.frame = r.varint()
			v.packedRun = r.packedRun(v.n, int(r.u8()))
		}
	case encIntDelta:
		v.n = r.count(0)
		v.delta = true
		if r.checkCount(v.n, nrows) && v.n > 0 {
			v.first = r.varint()
			v.frame = r.varint()
			v.packedRun = r.packedRun(v.n-1, int(r.u8()))
		}
	default:
		r.setErr(fmt.Sprintf("unknown int encoding 0x%02x", pv.enc))
	}
	return v, r.finish()
}

// packedDomain reports whether the page's values order like its codes:
// random-access codes narrower than a word, so a literal can be rebased by
// frame and compared unsigned.
func (v *intView) packedDomain() bool { return !v.delta && v.width < 64 }

// decodeInto decodes every row into out (len n).
func (v *intView) decodeInto(out []int64, sc *scratch) {
	if v.n == 0 {
		return
	}
	codes := v.unpack(sc) // deltas on a delta page
	if !v.delta {
		for i, c := range codes {
			out[i] = int64(c + uint64(v.frame))
		}
		return
	}
	cur := v.first
	out[0] = cur
	for i, d := range codes {
		cur += int64(d + uint64(v.frame))
		out[i+1] = cur
	}
}

// values decodes every row into sc.
func (v *intView) values(sc *scratch) []int64 {
	out := sc.grabInts(v.n)
	v.decodeInto(out, sc)
	return out
}

// valuesFor is values for a reader of only pop of the rows: nil when they
// are sparse on a random-access page, telling valueAt to extract each row
// on its own instead.
func (v *intView) valuesFor(pop int, sc *scratch) []int64 {
	if v.delta || !v.sparse(pop) {
		return v.values(sc)
	}
	return nil
}

// valueAt returns row i given the values valuesFor returned.
func (v *intView) valueAt(vals []int64, i int) int64 {
	if vals != nil {
		return vals[i]
	}
	return int64(v.codeAt(i) + uint64(v.frame))
}

// floatView is a parsed float page: n raw IEEE-754 values.
type floatView struct {
	n    int
	data []byte
}

func (pv pageView) floats(nrows int) (floatView, error) {
	r := &bufReader{buf: pv.body}
	var v floatView
	if pv.enc != encFloatRaw {
		r.setErr(fmt.Sprintf("unknown float encoding 0x%02x", pv.enc))
	}
	v.n = r.count(8)
	if r.checkCount(v.n, nrows) {
		v.data = r.bytes(8 * v.n)
	}
	return v, r.finish()
}

func (v floatView) decodeInto(out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v.data[i*8:]))
	}
}

// strView is a parsed string page: nd entries indexed as byte ranges of the
// page body (in sc, no string materialized) — one per row on a raw page,
// one per sorted dictionary entry on a dict page, whose packed codes map
// each of the n rows to its entry.
type strView struct {
	packedRun
	n, nd      int
	dict       bool
	body       []byte
	offs, lens []int32
}

func (pv pageView) strs(nrows int, sc *scratch) (*strView, error) {
	r := &bufReader{buf: pv.body}
	v := &sc.strv
	*v = strView{body: pv.body}
	switch pv.enc {
	case encStrRaw:
		v.n = r.count(1)
		if r.checkCount(v.n, nrows) {
			v.nd = v.n
			v.offs, v.lens = indexDict(r, v.nd, sc)
		}
	case encStrDict:
		v.dict = true
		v.n = r.count(0)
		if r.checkCount(v.n, nrows) {
			v.nd = r.count(1)
			v.offs, v.lens = indexDict(r, v.nd, sc)
			v.packedRun = r.packedRun(v.n, int(r.u8()))
		}
	default:
		r.setErr(fmt.Sprintf("unknown string encoding 0x%02x", pv.enc))
	}
	return v, r.finish()
}

// indexDict records the byte offsets and lengths of nd length-prefixed
// entries relative to the page body, leaving r positioned after them.
func indexDict(r *bufReader, nd int, sc *scratch) ([]int32, []int32) {
	offs, lens := sc.grabOffs(nd)
	for i := 0; i < nd && r.fail == nil; i++ {
		ln := r.count(1)
		offs[i], lens[i] = int32(r.off), int32(ln)
		r.bytes(ln)
	}
	return offs, lens
}

// entry returns entry i's bytes, aliasing the page body.
func (v *strView) entry(i int) []byte { return v.body[v.offs[i] : v.offs[i]+v.lens[i]] }

// row returns row k's bytes given the codes codes or codesAt returned.
func (v *strView) row(codes []uint64, k int) []byte {
	if codes != nil {
		k = int(codes[k])
	}
	return v.entry(k)
}

func (v *strView) codeErr(c uint64) error {
	return fmt.Errorf("colstore: dictionary code %d out of range %d", c, v.nd)
}

// codes unpacks every row's dictionary code into sc and range-checks them
// with one max-reduce. A raw page returns nil: its rows are their own
// entries.
func (v *strView) codes(sc *scratch) ([]uint64, error) {
	if !v.dict {
		return nil, nil
	}
	codes := v.unpack(sc)
	if v.width < 63 && uint64(v.nd) >= uint64(1)<<uint(v.width) {
		return codes, nil // every representable code is an entry
	}
	var m0, m1, m2, m3 uint64
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		c := codes[i : i+4 : i+4]
		m0, m1, m2, m3 = max(m0, c[0]), max(m1, c[1]), max(m2, c[2]), max(m3, c[3])
	}
	for ; i < len(codes); i++ {
		m0 = max(m0, codes[i])
	}
	if m := max(m0, m1, m2, m3); m >= uint64(v.nd) && v.n > 0 {
		return nil, v.codeErr(m)
	}
	return codes, nil
}

// codesAt is codes for a reader of only the mask's pop set rows: a sparse
// mask extracts and range-checks just those, leaving the other entries
// undefined.
func (v *strView) codesAt(mask []uint64, pop int, sc *scratch) ([]uint64, error) {
	if !v.dict || !v.sparse(pop) {
		return v.codes(sc)
	}
	codes := sc.grabWords(v.n)
	for w, word := range mask {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			i := base + bits.TrailingZeros64(word)
			c := v.codeAt(i)
			if c >= uint64(v.nd) {
				return nil, v.codeErr(c)
			}
			codes[i] = c
		}
	}
	return codes, nil
}

// colSlot is one column page as a block visit reads it: parsed, with its
// typed view validated, when a leaf first names the column, and its body
// unpacked or decoded at most once, when a leaf first needs the rows. Its
// own scratch holds the view and the decoded runs, so the slots of one
// visit never share a buffer.
type colSlot struct {
	sc scratch
	slotRead
}

// slotRead is what a colSlot has read of its page, all of it dropped by
// release.
type slotRead struct {
	opened bool
	err    error // the parse's or the code check's, returned to every reader
	pv     pageView
	kind   value.Kind // encKind(pv.enc)
	iv     *intView
	sv     *strView
	fv     floatView

	// What a leaf has read off the body: codes (packed-domain int codes,
	// checked dictionary codes, or none on a raw string page), values.
	gotCodes, gotInts, gotFloats bool
	codes                        []uint64
	ints                         []int64
	floats                       []float64
}

// open parses the page and its typed view, once per visit.
func (s *colSlot) open(payload []byte, nrows int) error {
	if s.opened {
		return s.err
	}
	s.opened = true
	if s.pv, s.err = parsePage(payload, nrows); s.err != nil {
		return s.err
	}
	switch s.kind = encKind(s.pv.enc); s.kind {
	case value.KindInt:
		s.iv, s.err = s.pv.ints(nrows, &s.sc)
	case value.KindFloat:
		s.fv, s.err = s.pv.floats(nrows)
	case value.KindString:
		s.sv, s.err = s.pv.strs(nrows, &s.sc)
	default:
		s.err = fmt.Errorf("unknown encoding 0x%02x", s.pv.enc)
	}
	return s.err
}

// intCodes returns a random-access int page's codes (value = frame + code).
func (s *colSlot) intCodes() []uint64 {
	if !s.gotCodes {
		s.gotCodes = true
		s.codes = s.iv.unpack(&s.sc)
	}
	return s.codes
}

// intValues returns an int page's values, from its codes when a leaf
// already unpacked them.
func (s *colSlot) intValues() []int64 {
	if !s.gotInts {
		s.gotInts = true
		if s.iv.delta {
			s.ints = s.iv.values(&s.sc)
		} else {
			codes := s.intCodes()
			s.ints = s.sc.grabInts(len(codes))
			for i, c := range codes {
				s.ints[i] = int64(c + uint64(s.iv.frame))
			}
		}
	}
	return s.ints
}

func (s *colSlot) floatValues() []float64 {
	if !s.gotFloats {
		s.gotFloats = true
		s.floats = s.sc.grabFloats(s.fv.n)
		s.fv.decodeInto(s.floats)
	}
	return s.floats
}

// strRows returns the string view and every row's checked dictionary
// code, nil on a raw page whose rows are its entries.
func (s *colSlot) strRows() (*strView, []uint64, error) {
	if !s.gotCodes {
		s.gotCodes = true
		s.codes, s.err = s.sv.codes(&s.sc)
	}
	return s.sv, s.codes, s.err
}

// decoded reports whether a leaf read the body (Stats.ScanPageDecodes).
func (s *colSlot) decoded() bool { return s.gotCodes || s.gotInts || s.gotFloats }

// release drops the slot's references into page bytes, keeping its
// buffers for the next visit. It clears slotRead alone: assigning a fresh
// colSlot would copy the embedded scratch out and back.
func (s *colSlot) release() {
	s.sc.intv, s.sc.strv = intView{}, strView{}
	s.slotRead = slotRead{}
}
