package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mto/internal/value"
)

// This file holds the byte-level building blocks of the segment format:
// a sticky-error binary reader/writer pair, the bit packer, and the page
// encoders (frame-of-reference bit-packing and delta bit-packing for
// integers, dictionary coding for strings, raw fallbacks for both, raw
// IEEE bits for floats); page.go reads the pages back. Encoding choices
// are deterministic functions of the data, so a segment written twice
// from the same layout is byte-identical.

// bufWriter accumulates an encoded byte stream.
type bufWriter struct {
	buf []byte
}

func (w *bufWriter) u8(b byte)        { w.buf = append(w.buf, b) }
func (w *bufWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *bufWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *bufWriter) bytes(b []byte)   { w.buf = append(w.buf, b...) }

func (w *bufWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *bufWriter) f64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// bufReader decodes an encoded byte stream with a sticky error: after the
// first malformed or truncated field every subsequent read returns zero
// values, and the caller checks err() once at the end. All length fields
// are validated against the remaining input before allocating, so a
// corrupted stream can neither panic nor force huge allocations.
type bufReader struct {
	buf  []byte
	off  int
	fail error
}

func (r *bufReader) setErr(msg string) {
	if r.fail == nil {
		r.fail = fmt.Errorf("colstore: %s at offset %d", msg, r.off)
	}
}

func (r *bufReader) err() error { return r.fail }

func (r *bufReader) remaining() int { return len(r.buf) - r.off }

func (r *bufReader) u8() byte {
	if r.fail != nil || r.off >= len(r.buf) {
		r.setErr("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *bufReader) uvarint() uint64 {
	if r.fail != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.setErr("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *bufReader) varint() int64 {
	if r.fail != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.setErr("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint element count and validates it against the
// remaining bytes assuming at least minBytesPer bytes per element, bounding
// allocations on corrupted input. minBytesPer 0 is allowed for bit-packed
// payloads whose width may be zero.
func (r *bufReader) count(minBytesPer int) int {
	v := r.uvarint()
	if r.fail != nil {
		return 0
	}
	if v > uint64(math.MaxInt32) || (minBytesPer > 0 && v > uint64(r.remaining()/minBytesPer)) {
		r.setErr(fmt.Sprintf("implausible count %d", v))
		return 0
	}
	return int(v)
}

func (r *bufReader) bytes(n int) []byte {
	if r.fail != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.setErr(fmt.Sprintf("truncated field of %d bytes", n))
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *bufReader) str() string {
	n := r.count(1)
	if r.fail != nil {
		return ""
	}
	return string(r.bytes(n))
}

func (r *bufReader) f64() float64 {
	b := r.bytes(8)
	if r.fail != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// value encoding: [kind u8][payload]. Ints are zig-zag varints, floats are
// raw IEEE-754 bits (so every float, including NaN and ±Inf, round-trips
// exactly), strings are length-prefixed.

func (w *bufWriter) value(v value.Value) {
	w.u8(byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindInt:
		w.varint(v.Int())
	case value.KindFloat:
		w.f64(v.Float())
	case value.KindString:
		w.str(v.Str())
	}
}

func (r *bufReader) value() value.Value {
	switch k := value.Kind(r.u8()); k {
	case value.KindNull:
		return value.Null
	case value.KindInt:
		return value.Int(r.varint())
	case value.KindFloat:
		return value.Float(r.f64())
	case value.KindString:
		return value.String(r.str())
	default:
		r.setErr(fmt.Sprintf("unknown value kind %d", k))
		return value.Null
	}
}

// packBits packs the low width bits of each element little-endian into a
// byte stream. width 0 produces no bytes (all elements are zero).
func packBits(vals []uint64, width int) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(vals)*width+7)/8)
	bitPos := 0
	for _, v := range vals {
		for b := 0; b < width; {
			byteIdx, bitIdx := bitPos>>3, bitPos&7
			take := 8 - bitIdx
			if take > width-b {
				take = width - b
			}
			out[byteIdx] |= byte((v >> b) << bitIdx)
			b += take
			bitPos += take
		}
	}
	return out
}

// unpackBitsInto reverses packBits into dst (len(dst) elements of the
// given width), letting callers reuse scratch buffers. The caller — the
// page reader — has validated the width (0..64) and the payload length for
// len(dst) elements. Eight elements of width w fill exactly w bytes, so a
// group of eight starts on a byte: widths below 8 unpack a group from one
// 8-byte load, widths 9–15 from two (the group's first and last 8 bytes),
// and widths up to 57 load each element's 8 bytes. Every shift count is
// masked to 63, which spares each shift Go's guard for counts past 64.
func unpackBitsInto(dst []uint64, buf []byte, width int) {
	count := len(dst)
	// Byte-aligned widths are straight loads: no shifting or masking, and
	// eight lanes per iteration keep the loop ahead of the generic path.
	switch width {
	case 0:
		clear(dst)
		return
	case 8:
		i := 0
		for ; i+8 <= count; i += 8 {
			d := dst[i : i+8 : i+8]
			b := buf[i : i+8 : i+8]
			d[0], d[1], d[2], d[3] = uint64(b[0]), uint64(b[1]), uint64(b[2]), uint64(b[3])
			d[4], d[5], d[6], d[7] = uint64(b[4]), uint64(b[5]), uint64(b[6]), uint64(b[7])
		}
		for ; i < count; i++ {
			dst[i] = uint64(buf[i])
		}
		return
	case 16:
		i := 0
		for ; i+8 <= count; i += 8 {
			d := dst[i : i+8 : i+8]
			b := buf[i*2 : i*2+16 : i*2+16]
			d[0] = uint64(binary.LittleEndian.Uint16(b[0:]))
			d[1] = uint64(binary.LittleEndian.Uint16(b[2:]))
			d[2] = uint64(binary.LittleEndian.Uint16(b[4:]))
			d[3] = uint64(binary.LittleEndian.Uint16(b[6:]))
			d[4] = uint64(binary.LittleEndian.Uint16(b[8:]))
			d[5] = uint64(binary.LittleEndian.Uint16(b[10:]))
			d[6] = uint64(binary.LittleEndian.Uint16(b[12:]))
			d[7] = uint64(binary.LittleEndian.Uint16(b[14:]))
		}
		for ; i < count; i++ {
			dst[i] = uint64(binary.LittleEndian.Uint16(buf[i*2:]))
		}
		return
	case 32:
		i := 0
		for ; i+8 <= count; i += 8 {
			d := dst[i : i+8 : i+8]
			b := buf[i*4 : i*4+32 : i*4+32]
			d[0] = uint64(binary.LittleEndian.Uint32(b[0:]))
			d[1] = uint64(binary.LittleEndian.Uint32(b[4:]))
			d[2] = uint64(binary.LittleEndian.Uint32(b[8:]))
			d[3] = uint64(binary.LittleEndian.Uint32(b[12:]))
			d[4] = uint64(binary.LittleEndian.Uint32(b[16:]))
			d[5] = uint64(binary.LittleEndian.Uint32(b[20:]))
			d[6] = uint64(binary.LittleEndian.Uint32(b[24:]))
			d[7] = uint64(binary.LittleEndian.Uint32(b[28:]))
		}
		for ; i < count; i++ {
			dst[i] = uint64(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		return
	case 64:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		return
	}
	i := 0
	mask, sw := uint64(1)<<uint(width)-1, uint(width)&63
	switch {
	case width < 8:
		for off := 0; i+8 <= count && off+8 <= len(buf); i, off = i+8, off+width {
			x := binary.LittleEndian.Uint64(buf[off:])
			d := dst[i : i+8 : i+8]
			d[0], x = x&mask, x>>sw
			d[1], x = x&mask, x>>sw
			d[2], x = x&mask, x>>sw
			d[3], x = x&mask, x>>sw
			d[4], x = x&mask, x>>sw
			d[5], x = x&mask, x>>sw
			d[6], x = x&mask, x>>sw
			d[7] = x & mask
		}
	case width < 16:
		// The group's last 8 bytes start at bit 8w-64 ≤ 4w: they hold
		// elements 4–7 whole, and the first 8 bytes hold elements 0–3.
		for off := 0; i+8 <= count && off+width <= len(buf); i, off = i+8, off+width {
			x := binary.LittleEndian.Uint64(buf[off:])
			y := binary.LittleEndian.Uint64(buf[off+width-8:]) >> (uint(64-4*width) & 63)
			d := dst[i : i+8 : i+8]
			d[0], x = x&mask, x>>sw
			d[1], x = x&mask, x>>sw
			d[2], x = x&mask, x>>sw
			d[3] = x & mask
			d[4], y = y&mask, y>>sw
			d[5], y = y&mask, y>>sw
			d[6], y = y&mask, y>>sw
			d[7] = y & mask
		}
	}
	if width <= 57 {
		for ; i < count; i++ {
			bitPos := i * width
			byteIdx := bitPos >> 3
			if byteIdx+8 > len(buf) {
				break // tail: the word load would run off the payload
			}
			dst[i] = binary.LittleEndian.Uint64(buf[byteIdx:]) >> (uint(bitPos) & 7) & mask
		}
	}
	for ; i < count; i++ {
		dst[i] = unpackAt(buf, i, width)
	}
}

// unpackAt extracts the idx'th width-bit element of a packed payload by
// random access. The caller must have validated the payload length for the
// full element count.
func unpackAt(buf []byte, idx, width int) uint64 {
	if width == 0 {
		return 0
	}
	bitPos := idx * width
	byteIdx := bitPos >> 3
	if width <= 57 && byteIdx+8 <= len(buf) {
		return binary.LittleEndian.Uint64(buf[byteIdx:]) >> (bitPos & 7) & (uint64(1)<<width - 1)
	}
	var v uint64
	for b := 0; b < width; {
		byteIdx, bitIdx := bitPos>>3, bitPos&7
		take := 8 - bitIdx
		if take > width-b {
			take = width - b
		}
		chunk := uint64(buf[byteIdx]>>bitIdx) & ((1 << take) - 1)
		v |= chunk << b
		b += take
		bitPos += take
	}
	return v
}

// Page encodings. A page payload is [enc u8][body]; the body layout
// depends on enc. Integer pages pick, deterministically, the smallest of
// frame-of-reference bit-packing, delta bit-packing, and the raw fallback.
const (
	encIntRaw    = 0x01 // [count][count × 8B LE]
	encIntFOR    = 0x02 // [count][min varint][width u8][packed (v-min)]
	encIntDelta  = 0x03 // [count][first varint][minDelta varint][width u8][packed deltas]
	encFloatRaw  = 0x04 // [count][count × 8B LE IEEE bits]
	encStrRaw    = 0x05 // [count][count × (len uvarint + bytes)]
	encStrDict   = 0x06 // [count][ndict][dict strings][width u8][packed codes]
	maxValidEnc  = encStrDict
	widthRawInts = 64 // FOR width at which packing stops paying off
)

// forParams computes the frame-of-reference parameters of vals: the
// minimum and the bit width of (max-min). Subtraction is performed in
// two's complement, so the full int64 range is handled.
func forParams(vals []int64) (min int64, width int) {
	min = vals[0]
	max := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, bits.Len64(uint64(max) - uint64(min))
}

// encodeInts appends the best integer encoding of vals to w.
func encodeInts(w *bufWriter, vals []int64) {
	if len(vals) == 0 {
		w.u8(encIntRaw)
		w.uvarint(0)
		return
	}
	forMin, forWidth := forParams(vals)

	deltas := make([]int64, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		deltas[i-1] = vals[i] - vals[i-1]
	}
	deltaWidth := 0
	var deltaMin int64
	if len(deltas) > 0 {
		deltaMin, deltaWidth = forParams(deltas)
	}

	forBits := len(vals) * forWidth
	deltaBits := len(deltas) * deltaWidth
	switch {
	case forWidth >= widthRawInts && deltaWidth >= widthRawInts:
		// Neither packing helps: raw fallback.
		w.u8(encIntRaw)
		w.uvarint(uint64(len(vals)))
		for _, v := range vals {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
		}
	case deltaBits < forBits:
		packed := make([]uint64, len(deltas))
		for i, d := range deltas {
			packed[i] = uint64(d) - uint64(deltaMin)
		}
		w.u8(encIntDelta)
		w.uvarint(uint64(len(vals)))
		w.varint(vals[0])
		w.varint(deltaMin)
		w.u8(byte(deltaWidth))
		w.bytes(packBits(packed, deltaWidth))
	default:
		packed := make([]uint64, len(vals))
		for i, v := range vals {
			packed[i] = uint64(v) - uint64(forMin)
		}
		w.u8(encIntFOR)
		w.uvarint(uint64(len(vals)))
		w.varint(forMin)
		w.u8(byte(forWidth))
		w.bytes(packBits(packed, forWidth))
	}
}

// encodeStrings appends the best string encoding of vals to w: dictionary
// coding (sorted distinct values + bit-packed codes) unless every value is
// distinct, where the dictionary is pure overhead and the raw fallback is
// used instead.
func encodeStrings(w *bufWriter, vals []string) {
	distinct := make(map[string]int, len(vals))
	for _, s := range vals {
		distinct[s] = 0
	}
	if len(distinct) >= len(vals) {
		w.u8(encStrRaw)
		w.uvarint(uint64(len(vals)))
		for _, s := range vals {
			w.str(s)
		}
		return
	}
	dict := make([]string, 0, len(distinct))
	for s := range distinct {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		distinct[s] = i
	}
	width := bits.Len64(uint64(len(dict) - 1))
	codes := make([]uint64, len(vals))
	for i, s := range vals {
		codes[i] = uint64(distinct[s])
	}
	w.u8(encStrDict)
	w.uvarint(uint64(len(vals)))
	w.uvarint(uint64(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	w.u8(byte(width))
	w.bytes(packBits(codes, width))
}

// encodeFloats appends the raw float encoding of vals to w.
func encodeFloats(w *bufWriter, vals []float64) {
	w.u8(encFloatRaw)
	w.uvarint(uint64(len(vals)))
	for _, f := range vals {
		w.f64(f)
	}
}

// encodeNulls appends the optional null-mask section preceding every
// column body: [hasNulls u8][bitmap when set].
func encodeNulls(w *bufWriter, nulls []bool, n int) {
	has := false
	for _, b := range nulls {
		if b {
			has = true
			break
		}
	}
	if !has {
		w.u8(0)
		return
	}
	w.u8(1)
	mask := make([]byte, (n+7)/8)
	for i, b := range nulls {
		if b {
			mask[i>>3] |= 1 << (i & 7)
		}
	}
	w.bytes(mask)
}
