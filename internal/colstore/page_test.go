package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
	"mto/internal/zonemap"
)

// The page contract, checked by checkPage over one payload read as each
// column kind: no consumer of a column page — full decode, every scan leaf
// kind, flat fold, grouped fold, group-slot resolution — ever panics, and
// each either returns an error or agrees with the full decoder (through
// the scalar references: predicate.FillMask and the row-at-a-time folds, over
// a table of the decoded values). A consumer that reads every row's value
// must reject every page the full decoder rejects. One thing the contract
// leaves to the writer and the page checksum: a dict page's entries are
// strictly ascending. The reader does not re-check the order, so on a page
// that breaks it the consumers only have to stay panic-free.

var allKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString}

// pageCheck is one payload under the contract.
type pageCheck struct {
	t        *testing.T
	label    string
	page     []byte
	nrows    int
	pristine bool // an encoder's output: every consumer must accept it
	nameMut  bool // the peer pairs with it: a pair's error must name the column
}

func (c *pageCheck) errorf(format string, args ...any) {
	c.t.Helper()
	c.t.Errorf("%s (%d rows, page %x): %s", c.label, c.nrows, c.page, fmt.Sprintf(format, args...))
}

// run calls one consumer, turning a panic into a test failure, and
// reports whether its result is to be compared against the oracle.
func (c *pageCheck) run(name string, readsAll, decoded bool, fn func() error) bool {
	c.t.Helper()
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				c.errorf("%s panicked: %v", name, p)
				err = fmt.Errorf("panic")
			}
		}()
		err = fn()
	}()
	switch {
	case err != nil && c.pristine:
		c.errorf("%s rejects a pristine page: %v", name, err)
	case err == nil && !decoded && readsAll:
		c.errorf("%s accepts a page the full decoder rejects", name)
	}
	return err == nil && decoded
}

// peers memoizes peerPage and its decoded column per kind, for the row
// count last asked for (the sweep asks for one, the fuzzer for many).
var peers = map[value.Kind]*peer{}

type peer struct {
	nrows int
	page  []byte
	cd    columnData
}

// peerPage is a well-formed page of the given kind and its decoded column,
// the partner of the page under test in column-pair leaves; its rows
// repeat, so strings dictionary-code.
func peerPage(t *testing.T, kind value.Kind, nrows int) ([]byte, *columnData) {
	if p := peers[kind]; p != nil && p.nrows == nrows {
		return p.page, &p.cd
	}
	page := encodePeer(kind, nrows)
	cd, err := decodeColumn(page, kind, nrows)
	if err != nil {
		t.Fatalf("peer page: %v", err)
	}
	peers[kind] = &peer{nrows, page, cd}
	return page, &peers[kind].cd
}

func encodePeer(kind value.Kind, nrows int) []byte {
	w := &bufWriter{}
	nulls := make([]bool, nrows)
	for k := range nulls {
		nulls[k] = k%4 == 3
	}
	encodeNulls(w, nulls, nrows)
	switch kind {
	case value.KindInt:
		vals := make([]int64, nrows)
		for k := range vals {
			vals[k] = int64(90 + (k*37)%300)
		}
		encodeInts(w, vals)
	case value.KindFloat:
		vals := make([]float64, nrows)
		for k := range vals {
			vals[k] = float64(k%9) * 0.75
		}
		encodeFloats(w, vals)
	default:
		vals := make([]string, nrows)
		for k := range vals {
			vals[k] = fmt.Sprintf("v%02d", (k*3)%7)
		}
		encodeStrings(w, vals)
	}
	return w.buf
}

func rowValue(cd *columnData, k int) value.Value {
	switch {
	case cd.Nulls != nil && cd.Nulls[k]:
		return value.Null
	case cd.Kind == value.KindInt:
		return value.Int(cd.Ints[k])
	case cd.Kind == value.KindFloat:
		return value.Float(cd.Floats[k])
	}
	return value.String(cd.Strs[k])
}

// leafPredicates is one predicate per scan leaf kind and polarity over a
// column "mut" of the given kind, plus both orders of a pair with "peer".
func leafPredicates(kind value.Kind) []predicate.Predicate {
	pair := func(l string, op predicate.Op, r string) predicate.Predicate {
		return &predicate.ColumnComparison{Left: l, Op: op, Right: r}
	}
	ps := []predicate.Predicate{pair("mut", predicate.Lt, "peer"), pair("peer", predicate.Le, "mut")}
	var lit value.Value
	switch kind {
	case value.KindInt:
		lit = value.Int(150)
		ps = append(ps, predicate.NewIn("mut", value.Int(100), value.Int(137)),
			predicate.NewNotIn("mut", value.Int(100), value.Int(137)))
	case value.KindFloat:
		lit = value.Float(2.5)
	default:
		lit = value.String("v03")
		ps = append(ps, predicate.NewIn("mut", value.String("v01"), value.String("v07")),
			predicate.NewNotIn("mut", value.String("v01"), value.String("v07")),
			predicate.NewLike("mut", "v0%"), predicate.NewNotLike("mut", "v0%"))
	}
	for _, op := range []predicate.Op{predicate.Eq, predicate.Lt, predicate.Ge} {
		ps = append(ps, predicate.NewComparison("mut", op, lit))
	}
	return ps
}

// foldOps are the aggregates foldPage folds over a page of the given kind.
func foldOps(kind value.Kind) []workload.AggOp {
	switch kind {
	case value.KindInt:
		return []workload.AggOp{workload.AggCount, workload.AggSum, workload.AggMin, workload.AggMax}
	case value.KindString:
		return []workload.AggOp{workload.AggCount, workload.AggMin, workload.AggMax}
	}
	return []workload.AggOp{workload.AggCount}
}

// checkPage holds every consumer of page, read as each column kind, to the
// page contract, and reports whether the full decoder accepted it as some
// kind.
func checkPage(t *testing.T, label string, page []byte, nrows int, pristine, truncated bool) bool {
	t.Helper()
	pv, perr := parsePage(page, nrows)
	accepted := false
	for _, kind := range allKinds {
		own := kind == encKind(pv.enc)
		c := &pageCheck{t: t, label: fmt.Sprintf("%s as %s", label, kind), page: page, nrows: nrows,
			pristine: pristine && own, nameMut: truncated && (own || perr != nil)}
		// A consumer handed every row reads every value unless the page's
		// own nulls thin the rows out into the sparse, per-access-checked
		// path.
		accepted = c.check(kind, pv, perr == nil && pv.nulls == nil) || accepted
	}
	return accepted
}

func (c *pageCheck) check(kind value.Kind, pv pageView, noNulls bool) bool {
	t, nrows := c.t, c.nrows
	sc := getScratch()
	defer putScratch(sc)
	nw := (nrows + 63) / 64

	// The full decoder, and the oracle's table over what it decoded.
	var cd columnData
	decoded := c.run("full decode", true, true, func() (err error) {
		cd, err = decodeColumn(c.page, kind, nrows)
		return err
	})
	peer, peerCD := peerPage(t, kind, nrows)
	tab := relation.NewTable(relation.MustSchema("sc",
		relation.Column{Name: "mut", Type: kind}, relation.Column{Name: "peer", Type: kind}))
	comparable := decoded
	if decoded {
		for k := 0; k < nrows; k++ {
			tab.MustAppendRow(rowValue(&cd, k), rowValue(peerCD, k))
		}
		for _, f := range cd.Floats {
			comparable = comparable && !math.IsNaN(f) // the oracle orders NaN by value.Compare
		}
		if v, err := pv.strs(nrows, sc); kind == value.KindString && err == nil && v.dict {
			for i := 1; i < v.nd; i++ {
				comparable = comparable && bytes.Compare(v.entry(i-1), v.entry(i)) < 0
			}
		}
	}
	// Scan leaves.
	ts := &TableScan{table: "sc", schema: tab.Schema()}
	eb := &EncodedBlock{Cols: [][]byte{c.page, peer}}
	if decoded { // the zone map of what decoded: leaves it settles are zone-decided
		rows := seq32(0, nrows)
		eb.Block = &block.Block{Rows: rows, Zone: zonemap.Build(tab, rows)}
	}
	for _, p := range leafPredicates(kind) {
		node := predicate.CompileScan(p, tab.Schema())
		got := make([]uint64, nw)
		name := fmt.Sprintf("scan %s", p)
		if c.run(name, true, decoded, func() error {
			err := evalOnce(ts, node, eb, nrows, got, sc)
			if _, pair := p.(*predicate.ColumnComparison); pair && err != nil && c.nameMut && !strings.Contains(err.Error(), "sc.mut") {
				c.errorf("%s: error does not name the column: %v", name, err)
			}
			return err
		}) && comparable {
			want := make([]uint64, nw)
			predicate.FillMask(p, tab, want)
			for k := 0; k < nrows; k++ {
				if have, want := got[k>>6]>>(uint(k)&63)&1 == 1, want[k>>6]>>(uint(k)&63)&1 == 1; have != want {
					c.errorf("%s: row %d = %v, FillMask says %v", name, k, have, want)
					break
				}
			}
		}
	}

	// Folds, one-slot and scattered over three groups and the NULL slot.
	groups := &relation.ColumnDict{Kind: value.KindInt, Ints: []int64{0, 1, 2}, Codes: make([]int32, nrows)}
	slots := make([]int32, nrows)
	for r := range slots {
		groups.Codes[r] = int32(r%4) - 1
		slots[r] = int32(r % 4)
	}
	masks := map[string][]uint64{"all": make([]uint64, nw), "sparse": make([]uint64, nw)}
	predicate.SetAll(masks["all"], nrows)
	for r := 0; r < nrows; r += 7 {
		masks["sparse"][r>>6] |= 1 << (uint(r) & 63)
	}
	for mname, mask := range masks {
		readsAll := mname == "all" && noNulls
		for _, op := range foldOps(kind) {
			agg := workload.Aggregate{Op: op, Alias: "sc", Column: "mut"}
			flat := make([]block.AggState, 1)
			name := fmt.Sprintf("flat %s over %s rows", op, mname)
			if c.run(name, readsAll && op != workload.AggCount, decoded, func() error {
				return foldPage(c.page, op, kind, nrows, mask, popcountMask(mask), nil, flat, sc)
			}) && comparable {
				_, want := referenceAgg(t, tab, agg, mask)
				compareAgg(t, c.label+": "+name, agg, kind, &flat[0], &want)
			}
			scattered := make([]block.AggState, 4)
			name = fmt.Sprintf("grouped %s over %s rows", op, mname)
			if c.run(name, readsAll && op != workload.AggCount, decoded, func() error {
				return foldPage(c.page, op, kind, nrows, mask, popcountMask(mask), slots, scattered, sc)
			}) && comparable {
				_, want := referenceGrouped(t, tab, groups, []workload.Aggregate{agg}, mask)
				for slot := range scattered {
					compareAgg(t, fmt.Sprintf("%s: %s slot %d", c.label, name, slot), agg, kind, &scattered[slot], &want[0][slot])
				}
			}
		}
		if kind == value.KindFloat {
			continue // floats never group
		}
		// Group-slot resolution against the dictionary of the decoded
		// values (an empty one when there are none: every row is missing).
		dict := &relation.ColumnDict{Kind: kind}
		if decoded {
			var err error
			if dict, err = relation.BuildColumnDict(tab, "mut"); err != nil {
				t.Fatal(err)
			}
		}
		tf := &TableFold{group: block.GroupKey{Column: "mut", Dict: dict}}
		got := make([]int32, nrows)
		name := fmt.Sprintf("group slots over %s rows", mname)
		if c.run(name, readsAll, decoded, func() error {
			return tf.groupSlots(pv, nrows, mask, popcountMask(mask), got, sc)
		}) && comparable {
			for r := 0; r < nrows; r++ {
				if mask[r>>6]>>(uint(r)&63)&1 == 1 && got[r] != dict.Code(r)+1 {
					c.errorf("%s: row %d in slot %d, oracle says %d", name, r, got[r], dict.Code(r)+1)
					break
				}
			}
		}
	}
	return decoded
}

// headerLen is the length of a pristine page's header region: everything
// before the packed codes / raw values.
func headerLen(t *testing.T, page []byte, nrows int) int {
	t.Helper()
	pv, err := parsePage(page, nrows)
	if err != nil {
		t.Fatal(err)
	}
	sc := new(scratch)
	switch encKind(pv.enc) {
	case value.KindInt:
		v, err := pv.ints(nrows, sc)
		if err != nil {
			t.Fatal(err)
		}
		return len(page) - len(v.packed)
	case value.KindFloat:
		v, err := pv.floats(nrows)
		if err != nil {
			t.Fatal(err)
		}
		return len(page) - len(v.data)
	}
	v, err := pv.strs(nrows, sc)
	if err != nil {
		t.Fatal(err)
	}
	if v.dict {
		return len(page) - len(v.packed)
	}
	return len(page) - len(pv.body) + len(binary.AppendUvarint(nil, uint64(nrows)))
}

// TestPageCorruptionSweep is the page contract over corrupted pages: for
// every encoding, every truncation length and every single-byte mutation of
// the header region, plus hand-built pages no truncation or mutation
// reaches.
func TestPageCorruptionSweep(t *testing.T) {
	const nrows = 40
	// scanTable's columns, except that s_raw carries no nulls: their shared
	// backing value would dictionary-code a block this small.
	tab := relation.NewTable(scanTable(t, 0).Schema())
	for r, src := 0, scanTable(t, nrows); r < nrows; r++ {
		row := make([]value.Value, src.Schema().NumColumns())
		for ci := range row {
			row[ci] = src.Value(r, ci)
		}
		row[5] = value.String(fmt.Sprintf("u%04d-%d", r, r*13))
		tab.MustAppendRow(row...)
	}
	for _, tc := range []struct {
		col string
		enc byte
	}{
		{"i_for", encIntFOR}, {"i_delta", encIntDelta}, {"i_raw", encIntRaw},
		{"f", encFloatRaw}, {"s_dict", encStrDict}, {"s_raw", encStrRaw},
	} {
		t.Run(tc.col, func(t *testing.T) {
			ci, _ := tab.Schema().ColumnIndex(tc.col)
			page := encodeColumnPage(tab, ci)
			pv, err := parsePage(page, nrows)
			if err != nil || pv.enc != tc.enc {
				t.Fatalf("want a 0x%02x page, got enc=0x%02x err=%v", tc.enc, pv.enc, err)
			}
			if !checkPage(t, "pristine", page, nrows, true, false) {
				t.Fatal("pristine page rejected")
			}
			for cut := 0; cut < len(page); cut++ {
				if checkPage(t, fmt.Sprintf("cut at %d", cut), page[:cut:cut], nrows, false, true) {
					t.Errorf("page truncated at %d/%d accepted", cut, len(page))
				}
			}
			hdr := headerLen(t, page, nrows)
			for at := 0; at < hdr; at++ {
				for delta := 1; delta < 256; delta++ {
					mut := append([]byte(nil), page...)
					mut[at] += byte(delta)
					checkPage(t, fmt.Sprintf("byte %d = 0x%02x", at, mut[at]), mut, nrows, false, false)
				}
				if t.Failed() {
					return
				}
			}
		})
	}

	// Hand-built pages: each is rejected by the full decoder, so by every
	// consumer that reads every row.
	handBuilt := func(nulls bool, body func(w *bufWriter)) []byte {
		w := &bufWriter{}
		if nulls {
			w.u8(1)
			w.bytes(make([]byte, (nrows+7)/8))
		} else {
			w.u8(0)
		}
		body(w)
		return w.buf
	}
	for name, page := range map[string][]byte{
		// A page holding more (or fewer) values than the footer's row count.
		"count-mismatch": handBuilt(false, func(w *bufWriter) { encodeInts(w, make([]int64, nrows+1)) }),
		// A dictionary of one entry whose packed codes reach entry 3.
		"dict-code-out-of-range": handBuilt(false, func(w *bufWriter) {
			codes := make([]uint64, nrows)
			codes[nrows/2] = 3
			w.u8(encStrDict)
			w.uvarint(nrows)
			w.uvarint(1)
			w.str("only")
			w.u8(2)
			w.bytes(packBits(codes, 2))
		}),
		"packed-payload-missing": handBuilt(true, func(w *bufWriter) {
			w.u8(encIntFOR)
			w.uvarint(nrows)
			w.varint(0)
			w.u8(8)
		}),
		"bit-width-65": handBuilt(false, func(w *bufWriter) {
			w.u8(encIntFOR)
			w.uvarint(nrows)
			w.varint(0)
			w.u8(65)
			w.bytes(make([]byte, (nrows*65+7)/8))
		}),
		"trailing-byte": handBuilt(false, func(w *bufWriter) {
			encodeFloats(w, make([]float64, nrows))
			w.u8(0)
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if checkPage(t, name, page, nrows, false, false) {
				t.Error("accepted by the full decoder")
			}
		})
	}
	// An implausibly huge count fails against the remaining bytes, before
	// any allocation sized by it.
	huge := handBuilt(false, func(w *bufWriter) {
		w.u8(encIntRaw)
		w.uvarint(1 << 40)
	})
	if _, err := decodeColumn(huge, value.KindInt, 1<<40); err == nil {
		t.Error("huge count accepted")
	}
}

// FuzzPageView holds arbitrary bytes to the page contract.
func FuzzPageView(f *testing.F) {
	tab := scanTable(f, 40)
	for ci := 0; ci < tab.Schema().NumColumns(); ci++ {
		f.Add(encodeColumnPage(tab, ci), uint16(40))
	}
	f.Add([]byte{0, encStrDict, 4, 1, 4, 'o', 'n', 'l', 'y', 2, 0xc0}, uint16(4))
	f.Add([]byte{0, encIntFOR, 9, 0, 57, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(9))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, payload []byte, nrows uint16) {
		// Row counts up to two varint bytes; larger ones only slow the oracle.
		checkPage(t, "fuzz", append([]byte{}, payload...), int(nrows)%1500, false, false)
	})
}

// TestCodeAtMatchesUnpack pins the random-access accessor to the
// sequential unpacker at every width and position sparse admits, including
// the codes whose word load is clamped to the payload's last 8 bytes.
func TestCodeAtMatchesUnpack(t *testing.T) {
	for width := 1; width <= 57; width++ {
		for _, count := range []int{1, 2, 7, 8, 9, 63, 64, 65, 200} {
			vals := make([]uint64, count)
			for i := range vals {
				vals[i] = uint64(i+1) * 0x9e3779b97f4a7c15 & (1<<uint(width) - 1)
			}
			r := &bufReader{buf: packBits(vals, width)}
			p := r.packedRun(count, width)
			if err := r.finish(); err != nil {
				t.Fatal(err)
			}
			if !p.sparse(0) {
				continue // under 8 bytes: always unpacked whole
			}
			for i, want := range vals {
				if got := p.codeAt(i); got != want {
					t.Fatalf("width %d count %d: codeAt(%d) = %#x, want %#x", width, count, i, got, want)
				}
			}
		}
	}
}
