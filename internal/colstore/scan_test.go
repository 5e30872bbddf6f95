package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/zonemap"
)

// scanTable builds a table whose columns force every page encoding the
// compressed scan handles: FOR-packed ints, delta-packed ints, raw ints
// (extreme values overflow the packed range), raw floats, dictionary
// strings, and raw strings — each with its own null cadence.
func scanTable(t testing.TB, n int) *relation.Table {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("sc",
		relation.Column{Name: "i_for", Type: value.KindInt},
		relation.Column{Name: "i_delta", Type: value.KindInt},
		relation.Column{Name: "i_raw", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s_dict", Type: value.KindString},
		relation.Column{Name: "s_raw", Type: value.KindString},
		// Partners for the column-pair rows: a float and a dict string
		// whose order against f / s_dict / s_raw varies row to row.
		relation.Column{Name: "f2", Type: value.KindFloat},
		relation.Column{Name: "s_mix", Type: value.KindString},
	))
	mixPool := []string{"a", "u0050-650", "v02", "v05", "zz"}
	for i := 0; i < n; i++ {
		vFor := value.Value(value.Int(int64(100 + (i*37)%300)))
		if i%7 == 0 {
			vFor = value.Null
		}
		var vRaw value.Value
		switch i % 3 {
		case 0:
			vRaw = value.Int(math.MinInt64 + int64(i))
		case 1:
			vRaw = value.Int(math.MaxInt64 - int64(i))
		default:
			vRaw = value.Int(int64(i))
		}
		if i%11 == 0 {
			vRaw = value.Null
		}
		vF := value.Value(value.Float(float64(i) * 0.25))
		if i%5 == 0 {
			vF = value.Null
		}
		vDict := value.Value(value.String(fmt.Sprintf("v%02d", i%8)))
		if i%6 == 0 {
			vDict = value.Null
		}
		vStr := value.Value(value.String(fmt.Sprintf("u%04d-%d", i, i*13)))
		if i%9 == 0 {
			vStr = value.Null
		}
		vF2 := value.Value(value.Float(float64((i*13)%200) * 0.25))
		if i%4 == 0 {
			vF2 = value.Null
		}
		vMix := value.Value(value.String(mixPool[(i*3)%len(mixPool)]))
		if i%10 == 0 {
			vMix = value.Null
		}
		tab.MustAppendRow(
			vFor,
			value.Int(int64(i)*1_000_003),
			vRaw,
			vF,
			vDict,
			vStr,
			vF2,
			vMix,
		)
	}
	return tab
}

// scanPredicates is the identity matrix: every operator × every column
// (hence every encoding) × literals below / at the bottom of / inside
// (existing and missing) / at the top of / above the page value domain,
// plus IN / NOT IN (with and without null literals), LIKE shapes, column
// pairs (every operator × every pairing of int encodings — i_for and i_raw
// carry nulls, i_delta none, so nulls fall on the left, the right, both
// and neither — float/float, and dict/raw string pairings), and nested
// AND/OR composition.
func scanPredicates() []predicate.Predicate {
	ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
	var preds []predicate.Predicate
	intLits := map[string][]int64{
		// i_for holds {0 (null backing)} ∪ [100,399]; 250 misses (100+37k pattern).
		"i_for": {-5, 0, 100, 211, 250, 399, 1000},
		// i_delta holds multiples of 1000003 in [0, (n-1)*1000003].
		"i_delta": {-1, 0, 3 * 1_000_003, 500, 199 * 1_000_003, math.MaxInt64},
		// i_raw spans the extremes.
		"i_raw": {math.MinInt64, math.MinInt64 + 3, 0, 7, math.MaxInt64 - 4, math.MaxInt64},
	}
	for col, lits := range intLits {
		for _, op := range ops {
			for _, lit := range lits {
				preds = append(preds, predicate.NewComparison(col, op, value.Int(lit)))
			}
		}
	}
	for _, op := range ops {
		for _, lit := range []float64{-1, 0, 10.25, 10.3, 49.75, 1e9} {
			preds = append(preds, predicate.NewComparison("f", op, value.Float(lit)))
		}
		for _, lit := range []string{"", "v00", "v05", "v07", "v07x", "zz"} {
			preds = append(preds, predicate.NewComparison("s_dict", op, value.String(lit)))
		}
		for _, lit := range []string{"", "u0000-0", "u0100-1300", "u0100-0", "zz"} {
			preds = append(preds, predicate.NewComparison("s_raw", op, value.String(lit)))
		}
	}
	pair := func(l string, op predicate.Op, r string) predicate.Predicate {
		return &predicate.ColumnComparison{Left: l, Op: op, Right: r}
	}
	intCols := []string{"i_for", "i_delta", "i_raw"}
	strCols := []string{"s_dict", "s_raw", "s_mix"}
	for _, op := range ops {
		for _, l := range intCols {
			for _, r := range intCols {
				preds = append(preds, pair(l, op, r))
			}
		}
		preds = append(preds, pair("f", op, "f2"), pair("f2", op, "f"), pair("f", op, "f"))
		for _, l := range strCols {
			for _, r := range strCols {
				preds = append(preds, pair(l, op, r))
			}
		}
	}
	preds = append(preds,
		pair("i_for", predicate.Lt, "missing"),
		pair("missing", predicate.Ge, "s_dict"),
		// Mixed kinds: an int and a float compare exactly, a string and a
		// number never.
		pair("i_for", predicate.Lt, "f"),
		pair("f", predicate.Eq, "i_delta"),
		pair("s_dict", predicate.Ne, "i_for"),
		predicate.NewAnd(
			predicate.NewComparison("i_for", predicate.Gt, value.Int(150)),
			pair("i_for", predicate.Lt, "i_delta"),
		),
		predicate.NewOr(
			pair("s_dict", predicate.Le, "s_mix"),
			predicate.NewAnd(pair("f", predicate.Gt, "f2"), predicate.NewLike("s_raw", "u01%")),
		),
	)
	preds = append(preds,
		predicate.NewIn("i_for", value.Int(100), value.Int(250), value.Int(211)),
		predicate.NewNotIn("i_for", value.Int(100), value.Int(211)),
		predicate.NewNotIn("i_for", value.Int(100), value.Null),
		predicate.NewIn("i_raw", value.Int(math.MinInt64), value.Int(7)),
		predicate.NewIn("i_delta", value.Int(0), value.Int(5*1_000_003), value.Int(17)),
		predicate.NewIn("s_dict", value.String("v01"), value.String("v07"), value.String("nope")),
		predicate.NewNotIn("s_dict", value.String("v01"), value.String("v02")),
		predicate.NewNotIn("s_dict", value.String("v01"), value.Null),
		predicate.NewIn("s_raw", value.String("u0001-13"), value.String("zz")),
		predicate.NewNotIn("s_raw", value.String("u0001-13")),
		// Mixed-kind and empty lists.
		predicate.NewIn("i_for", value.String("x"), value.Int(137)),
		predicate.NewIn("i_for"),
		predicate.NewLike("s_dict", "v0%"),
		predicate.NewLike("s_dict", "%1"),
		predicate.NewLike("s_dict", "v_1"),
		predicate.NewNotLike("s_dict", "v0%"),
		predicate.NewLike("s_raw", "u00%"),
		predicate.NewNotLike("s_raw", "%13"),
		predicate.True(),
		predicate.False(),
		predicate.NewComparison("missing", predicate.Lt, value.Int(1)),
		predicate.NewAnd(
			predicate.NewComparison("i_for", predicate.Gt, value.Int(150)),
			predicate.NewComparison("s_dict", predicate.Ne, value.String("v03")),
		),
		predicate.NewOr(
			predicate.NewComparison("i_for", predicate.Eq, value.Int(137)),
			predicate.NewAnd(
				predicate.NewComparison("f", predicate.Lt, value.Float(20)),
				predicate.NewComparison("i_delta", predicate.Ge, value.Int(50*1_000_003)),
			),
		),
		predicate.NewOr(
			predicate.NewComparison("s_dict", predicate.Eq, value.String("v02")),
			predicate.NewComparison("i_raw", predicate.Gt, value.Int(0)),
			predicate.NewLike("s_raw", "u001%"),
		),
	)
	// ORs of int ranges on one column, which compile to the union of
	// their intervals: overlapping, nested, adjacent (hi+1 == lo),
	// disjoint, empty, exclusive, and at the int64 extremes.
	rng := func(col string, loOp predicate.Op, lo int64, hiOp predicate.Op, hi int64) predicate.Predicate {
		return predicate.NewAnd(predicate.NewComparison(col, loOp, value.Int(lo)), predicate.NewComparison(col, hiOp, value.Int(hi)))
	}
	ge, gt, le, lt := predicate.Ge, predicate.Gt, predicate.Le, predicate.Lt
	const d = 1_000_003
	preds = append(preds,
		predicate.NewOr(rng("i_for", ge, 120, le, 200), rng("i_for", ge, 150, le, 250)),
		predicate.NewOr(rng("i_for", ge, 120, le, 300), rng("i_for", ge, 150, le, 200)),
		predicate.NewOr(rng("i_for", ge, 100, le, 150), rng("i_for", ge, 151, le, 170), rng("i_for", ge, 300, le, 310)),
		predicate.NewOr(rng("i_for", ge, 100, le, 120), rng("i_for", ge, 390, le, 400)),
		predicate.NewOr(rng("i_for", gt, 200, lt, 201), rng("i_for", ge, 300, le, 299)),
		predicate.NewOr(rng("i_for", gt, 120, lt, 200), rng("i_for", gt, 199, lt, 260)),
		predicate.NewOr(rng("i_for", ge, 250, le, 260), rng("i_for", ge, 0, le, 5), rng("i_for", gt, 261, lt, 263)),
		predicate.NewOr(rng("i_delta", ge, 0, le, 3*d), rng("i_delta", ge, 2*d, le, 10*d), rng("i_delta", gt, 50*d, le, 60*d)),
		predicate.NewOr(rng("i_raw", ge, math.MinInt64, le, math.MinInt64+5), rng("i_raw", gt, math.MaxInt64-10, le, math.MaxInt64)),
		predicate.NewOr(rng("i_raw", ge, math.MinInt64, lt, 0), rng("i_raw", ge, 0, le, math.MaxInt64)),
		predicate.NewOr(rng("i_raw", gt, math.MaxInt64, le, math.MaxInt64), rng("i_raw", ge, math.MinInt64, lt, math.MinInt64)),
	)
	return preds
}

// randomRanges is an OR of two to four ranges on the int column c, with
// bounds near lit, in the fuzz data's range or at the int64 extremes,
// each side inclusive or exclusive, and sometimes starting right after
// the previous range ends: so they overlap, touch, lie apart or are
// empty.
func randomRanges(rng *rand.Rand, lit int64) predicate.Predicate {
	bound := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return math.MinInt64 + int64(rng.Intn(2))
		case 1:
			return math.MaxInt64 - int64(rng.Intn(2))
		case 2:
			return lit + int64(rng.Intn(21)) - 10
		}
		return int64(rng.Intn(120)) - 10
	}
	ops := [2][2]predicate.Op{{predicate.Ge, predicate.Gt}, {predicate.Le, predicate.Lt}}
	kids := make([]predicate.Predicate, 2+rng.Intn(3))
	prevHi := bound()
	for i := range kids {
		lo, hi := bound(), bound()
		if rng.Intn(3) == 0 && prevHi < math.MaxInt64 {
			lo = prevHi + 1
		}
		if rng.Intn(4) > 0 && lo > hi {
			lo, hi = hi, lo
		}
		prevHi = hi
		kids[i] = predicate.NewAnd(predicate.NewComparison("c", ops[0][rng.Intn(2)], value.Int(lo)),
			predicate.NewComparison("c", ops[1][rng.Intn(2)], value.Int(hi)))
	}
	return predicate.NewOr(kids...)
}

// newScanStore writes tab's layout (grouped as given) into a fresh store
// over segment files.
func newScanStore(t *testing.T, tab *relation.Table, groups [][]int32, cacheBytes int64) *Store {
	t.Helper()
	return installScanTable(t, openByteSource(t, "file", cacheBytes), tab, groups)
}

// installScanTable installs tab's layout (grouped as given) into s.
func installScanTable(t *testing.T, s *Store, tab *relation.Table, groups [][]int32) *Store {
	t.Helper()
	tl, err := block.NewTableLayout(tab, groups, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetLayout("sc", tl); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompressedScanMatchesFillMask is the per-encoding identity gate:
// every predicate the compressed compiler accepts must produce exactly
// FillMask's bits when evaluated over encoded pages, on a single-block
// layout and on out-of-order multi-block layouts (whose positions differ
// from base rows), with and without a cache.
func TestCompressedScanMatchesFillMask(t *testing.T) {
	tab := scanTable(t, 200)
	n := tab.NumRows()
	layouts := map[string][][]int32{
		"single-block": {seq32(0, n)},
		"two-blocks":   {seq32(n/2, n), seq32(0, n/2)},
		"interleaved":  interleavedGroups(n, 3),
	}
	preds := scanPredicates()
	// The encoder picks each block's encoding independently, so coverage
	// of all five value encodings is asserted over the union of layouts.
	seenEnc := map[byte]bool{}
	for name, groups := range layouts {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s-cache%d", name, cacheBytes), func(t *testing.T) {
				s := newScanStore(t, tab, groups, cacheBytes)
				recordEncodings(t, s, seenEnc)
				scan := s.CompileScan("sc", preds).(*TableScan)
				masks := make([][]uint64, len(preds))
				nw := (n + 63) / 64
				for i := range masks {
					masks[i] = make([]uint64, nw)
				}
				for id := 0; id < s.NumBlocks("sc"); id++ {
					if _, err := scanRowMasks(scan, id, masks); err != nil {
						t.Fatal(err)
					}
				}
				for i, p := range preds {
					want := make([]uint64, nw)
					predicate.FillMask(p, tab, want)
					if !reflect.DeepEqual(masks[i], want) {
						t.Errorf("%s: compressed mask differs from FillMask\n got %x\nwant %x", p, masks[i], want)
					}
				}
			})
		}
	}
	for _, enc := range []byte{encIntRaw, encIntFOR, encIntDelta, encFloatRaw, encStrRaw, encStrDict} {
		if !seenEnc[enc] {
			t.Errorf("no layout produced encoding 0x%02x (got %v)", enc, seenEnc)
		}
	}
}

// recordEncodings accumulates which page encodings the store's segment
// actually uses, so the parent test can assert full coverage.
func recordEncodings(t *testing.T, s *Store, seen map[byte]bool) {
	t.Helper()
	st := s.state("sc")
	for id := 0; id < st.seg.NumBlocks(); id++ {
		for _, payload := range st.seg.mustEncoded(t, id) {
			pv, err := parsePage(payload, st.seg.BlockRows(id))
			if err != nil {
				t.Fatal(err)
			}
			seen[pv.enc] = true
		}
	}
}

func interleavedGroups(n, k int) [][]int32 {
	groups := make([][]int32, k)
	for i := 0; i < n; i++ {
		groups[i%k] = append(groups[i%k], int32(i))
	}
	return groups
}

// FuzzCompressedPredicate cross-checks the compressed evaluator against
// FillMask on randomly generated pages: random value distributions
// (forcing different encodings), random null cadences, NaN and ±Inf
// floats, and random operators against literals of the column's kind, of
// the other numeric kind, NULL, NaN or ±Inf, IN lists over floats, column
// pairs of one kind or of an int and a float, and ORs of int ranges.
func FuzzCompressedPredicate(f *testing.F) {
	f.Add(int64(1), int64(150), uint8(0), uint8(0))
	f.Add(int64(2), int64(-7), uint8(3), uint8(1))
	f.Add(int64(3), int64(0), uint8(6), uint8(2))
	f.Add(int64(4), int64(1<<40), uint8(7), uint8(0))
	f.Add(int64(5), int64(42), uint8(2), uint8(2))
	// c < d under AND / OR, and a bare pair, once per kind.
	for k := uint8(0); k < 3; k++ {
		f.Add(int64(6+k), int64(30), uint8(9), k)
		f.Add(int64(9+k), int64(7), uint8(10), k)
		f.Add(int64(12+k), int64(0), uint8(11+12*k), k)
	}
	// Float IN lists and mixed int/float literals and pairs.
	f.Add(int64(15), int64(3), uint8(6), uint8(1))
	f.Add(int64(16), int64(5), uint8(7), uint8(1))
	f.Add(int64(17), int64(9), uint8(11), uint8(0))
	f.Add(int64(18), int64(1<<53+1), uint8(4), uint8(1))
	// Same-column ORs of int ranges.
	for seed := int64(19); seed < 23; seed++ {
		f.Add(seed, seed*7, uint8(8), uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed, rawLit int64, opRaw, kindRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		kind := []value.Kind{value.KindInt, value.KindFloat, value.KindString}[int(kindRaw)%3]
		// d is c's partner for the column-pair shapes: its own
		// distribution and null cadence, and sometimes the other numeric
		// kind.
		dKind := kind
		if kind != value.KindString && rng.Intn(3) == 0 {
			dKind = value.KindInt + value.KindFloat - kind
		}
		tab := relation.NewTable(relation.MustSchema("fz",
			relation.Column{Name: "c", Type: kind}, relation.Column{Name: "d", Type: dKind}))
		nullEvery := rng.Intn(6) // 0 = no nulls
		dist := rng.Intn(4)
		var strPool []string
		for i := 0; i < 8; i++ {
			strPool = append(strPool, fmt.Sprintf("k%c%d", 'a'+rng.Intn(4), rng.Intn(20)))
		}
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		gen := func(kind value.Kind, i, dist, nullEvery int) value.Value {
			var v value.Value
			switch kind {
			case value.KindInt:
				switch dist {
				case 0: // narrow range → FOR
					v = value.Int(int64(rng.Intn(100)))
				case 1: // monotone, wide → delta
					v = value.Int(int64(i)*9973 + int64(rng.Intn(5)))
				case 2: // extremes → raw
					if rng.Intn(2) == 0 {
						v = value.Int(math.MinInt64 + int64(rng.Intn(1000)))
					} else {
						v = value.Int(math.MaxInt64 - int64(rng.Intn(1000)))
					}
				default:
					v = value.Int(int64(rng.Intn(20)) - 10)
				}
			case value.KindFloat:
				v = value.Float(float64(rng.Intn(40)) * 0.5)
				if dist == 3 && rng.Intn(4) == 0 {
					v = value.Float(specials[rng.Intn(len(specials))])
				}
			default:
				v = value.String(strPool[rng.Intn(len(strPool))])
			}
			if nullEvery > 0 && i%nullEvery == 0 {
				v = value.Null
			}
			return v
		}
		dDist, dNullEvery := rng.Intn(4), rng.Intn(6)
		for i := 0; i < n; i++ {
			tab.MustAppendRow(gen(kind, i, dist, nullEvery), gen(dKind, i, dDist, dNullEvery))
		}
		var lit value.Value
		switch shape := rng.Intn(8); {
		case shape == 0:
			lit = value.Null
		case shape == 1 && kind != value.KindString: // the other numeric kind
			lit = value.Float(float64(rawLit) * 0.5)
			if kind == value.KindFloat {
				lit = value.Int(rawLit)
			}
		case shape == 2 && kind == value.KindFloat:
			lit = value.Float(specials[int(uint64(rawLit)%3)])
		case kind == value.KindInt:
			lit = value.Int(rawLit)
		case kind == value.KindFloat:
			lit = value.Float(float64(rawLit) * 0.5)
		default:
			lit = value.String(strPool[int(uint64(rawLit)%uint64(len(strPool)))])
		}
		ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
		var p predicate.Predicate
		cLtD := &predicate.ColumnComparison{Left: "c", Op: predicate.Lt, Right: "d"}
		switch int(opRaw) % 12 {
		case 9:
			p = predicate.NewAnd(predicate.NewComparison("c", predicate.Ge, lit), cLtD)
		case 10:
			p = predicate.NewOr(predicate.NewComparison("d", predicate.Eq, lit), cLtD)
		case 11:
			p = &predicate.ColumnComparison{Left: "d", Op: ops[int(opRaw/12)%6], Right: "c"}
		case 6:
			p = predicate.NewIn("c", lit, value.Int(3), value.Float(2.5))
		case 7:
			p = predicate.NewNotIn("c", lit, value.Float(4))
		case 8:
			switch kind {
			case value.KindString:
				p = predicate.NewLike("c", "k_%")
			case value.KindInt:
				p = randomRanges(rng, rawLit)
			default:
				p = predicate.NewComparison("c", predicate.Ge, lit)
			}
		default:
			p = predicate.NewComparison("c", ops[int(opRaw)%6], lit)
		}
		checkPageIdentity(t, tab, p)
	})
}

// checkPageIdentity encodes tab's columns exactly as WriteSegment would,
// evaluates p over the encoded pages, and compares against FillMask.
func checkPageIdentity(t *testing.T, tab *relation.Table, p predicate.Predicate) {
	t.Helper()
	n := tab.NumRows()
	ts, eb := pageScan(tab)
	node := predicate.CompileScan(p, tab.Schema())
	nw := (n + 63) / 64
	want := make([]uint64, nw)
	predicate.FillMask(p, tab, want)
	got := make([]uint64, nw)
	sc := getScratch()
	defer putScratch(sc)
	if err := evalOnce(ts, node, eb, n, got, sc); err != nil {
		t.Fatalf("%s: eval: %v", p, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: compressed mask differs\n got %x\nwant %x", p, got, want)
	}
}

// evalOnce evaluates node over eb's pages in a visit of its own.
func evalOnce(ts *TableScan, node predicate.ScanNode, eb *EncodedBlock, nrows int, out []uint64, sc *scratch) error {
	v := ts.newVisit(eb, nrows, sc)
	defer v.release()
	return v.eval(node, out)
}

// pageScan encodes every column of tab as one block's pages, with the zone
// map of all its rows, and returns a scan handle that evaluates over them.
func pageScan(tab *relation.Table) (*TableScan, *EncodedBlock) {
	ts := &TableScan{table: tab.Schema().Table(), schema: tab.Schema()}
	eb := &EncodedBlock{Block: &block.Block{Rows: seq32(0, tab.NumRows())}}
	eb.Block.Zone = zonemap.Build(tab, eb.Block.Rows)
	for ci := 0; ci < tab.Schema().NumColumns(); ci++ {
		eb.Cols = append(eb.Cols, encodeColumnPage(tab, ci))
	}
	return ts, eb
}

// encodeColumnPage builds column ci's page payload exactly like
// WriteSegment: null section, then the best value encoding of the backing
// values (null slots keep their backing value, as on disk).
func encodeColumnPage(tab *relation.Table, ci int) []byte {
	w := &bufWriter{}
	n := tab.NumRows()
	encodeNulls(w, tab.Nulls(ci), n)
	switch tab.Schema().Column(ci).Type {
	case value.KindInt:
		encodeInts(w, tab.Ints(ci))
	case value.KindFloat:
		encodeFloats(w, tab.Floats(ci))
	default:
		encodeStrings(w, tab.Strings(ci))
	}
	return w.buf
}

// TestRawLikeAllocatesNothing: LIKE over a raw string page matches each
// row's bytes in place, with no string per row, and agrees with the
// string matcher the bulk mask path uses.
func TestRawLikeAllocatesNothing(t *testing.T) {
	const n = 300
	tab := relation.NewTable(relation.MustSchema("lk", relation.Column{Name: "s", Type: value.KindString}))
	for i := 0; i < n; i++ {
		tab.MustAppendRow(value.String(fmt.Sprintf("item-%03d-%s", i, string(rune('a'+i%26)))))
	}
	page := encodeColumnPage(tab, 0)
	for _, pattern := range []string{"item-01%", "%-q", "%-2%", "item-123-t", "item-_4%", "%1\\_%"} {
		like := predicate.NewLike("s", pattern)
		lk := predicate.CompileScan(like, tab.Schema()).(*predicate.ScanLike)
		var s colSlot
		if err := s.open(page, n); err != nil {
			t.Fatal(err)
		}
		if _, codes, err := s.strRows(); err != nil || codes != nil {
			t.Fatalf("page is not raw (codes %v, err %v)", codes != nil, err)
		}
		var sc scratch
		out := make([]uint64, (n+63)/64)
		if err := s.like(lk, out, &sc); err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(out))
		predicate.FillMask(like, tab, want)
		if !slices.Equal(out, want) {
			t.Errorf("%q: raw-page LIKE %x, string matcher %x", pattern, out, want)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			clear(out)
			if err := s.like(lk, out, &sc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%q: %v allocations per raw-page LIKE", pattern, allocs)
		}
	}
}
