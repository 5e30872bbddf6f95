package colstore

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/zonemap"
)

// zoneColumn is one page encoding under the zone-decision matrix: gen
// yields row i's backing value (nulls keep it, as on disk).
type zoneColumn struct {
	name string
	enc  byte
	kind value.Kind
	gen  func(i int) value.Value
	// point columns hold one value, the only zone that decides = true and
	// != false.
	point bool
}

var zoneColumns = []zoneColumn{
	// Zigzagging between the ends of [100, 399], so deltas pack wider.
	{name: "for", enc: encIntFOR, kind: value.KindInt, gen: func(i int) value.Value {
		if i%2 == 0 {
			return value.Int(int64(100 + i%150))
		}
		return value.Int(int64(399 - i%150))
	}},
	{name: "delta", enc: encIntDelta, kind: value.KindInt, gen: func(i int) value.Value { return value.Int(int64(i) * 1_000_003) }},
	// Low, middle, high, middle: values and deltas both span the word.
	{name: "raw", enc: encIntRaw, kind: value.KindInt, gen: func(i int) value.Value {
		switch i % 4 {
		case 0:
			return value.Int(math.MinInt64 + 3 + int64(i))
		case 2:
			return value.Int(math.MaxInt64 - 3 - int64(i))
		}
		return value.Int(int64(i))
	}},
	// NaN first (so it is the zone map's only bound) and later, and -0.
	{name: "float", enc: encFloatRaw, kind: value.KindFloat, gen: func(i int) value.Value {
		switch {
		case i%13 == 1:
			return value.Float(math.NaN())
		case i%7 == 2:
			return value.Float(math.Copysign(0, -1))
		}
		return value.Float(float64(i) * 0.25)
	}},
	{name: "dict", enc: encStrDict, kind: value.KindString, gen: func(i int) value.Value { return value.String(fmt.Sprintf("v%02d", i%8)) }},
	{name: "rawstr", enc: encStrRaw, kind: value.KindString, gen: func(i int) value.Value { return value.String(fmt.Sprintf("u%04d-%d", i, i*13)) }},
	{name: "point", enc: encIntFOR, kind: value.KindInt, point: true, gen: func(int) value.Value { return value.Int(42) }},
	{name: "pointstr", enc: encStrDict, kind: value.KindString, point: true, gen: func(int) value.Value { return value.String("same") }},
}

var zoneNulls = []struct {
	name string
	null func(i int) bool
}{
	{"no-nulls", func(int) bool { return false }},
	{"some-nulls", func(i int) bool { return i%5 == 0 }},
	{"all-null", func(int) bool { return true }},
}

// zoneBlock encodes column zc with the given null cadence as the page of a
// one-block scan whose zone map covers its rows, and returns the oracle's
// table of the same rows.
func zoneBlock(t *testing.T, zc zoneColumn, null func(int) bool, n int) (*relation.Table, *TableScan, *EncodedBlock) {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("zt", relation.Column{Name: "c", Type: zc.kind}))
	nulls := make([]bool, n)
	var ints []int64
	var floats []float64
	var strs []string
	for i := 0; i < n; i++ {
		v := zc.gen(i)
		switch zc.kind {
		case value.KindInt:
			ints = append(ints, v.Int())
		case value.KindFloat:
			floats = append(floats, v.Float())
		default:
			strs = append(strs, v.Str())
		}
		if nulls[i] = null(i); nulls[i] {
			v = value.Null
		}
		tab.MustAppendRow(v)
	}
	w := &bufWriter{}
	encodeNulls(w, nulls, n)
	switch zc.kind {
	case value.KindInt:
		encodeInts(w, ints)
	case value.KindFloat:
		encodeFloats(w, floats)
	default:
		encodeStrings(w, strs)
	}
	if pv, err := parsePage(w.buf, n); err != nil || pv.enc != zc.enc {
		t.Fatalf("%s: want a 0x%02x page, got 0x%02x (%v)", zc.name, zc.enc, pv.enc, err)
	}
	rows := seq32(0, n)
	eb := &EncodedBlock{Block: &block.Block{Rows: rows, Zone: zonemap.Build(tab, rows)}, Cols: [][]byte{w.buf}}
	return tab, &TableScan{table: "zt", colIdx: map[string]int{"c": 0}}, eb
}

// zoneLiterals are literals below, at the bottom of, inside, at the top of
// and above the column's backing values.
func zoneLiterals(zc zoneColumn, n int) []value.Value {
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = zc.gen(i)
	}
	switch zc.kind {
	case value.KindString:
		sort.Slice(vals, func(i, j int) bool { return vals[i].Str() < vals[j].Str() })
		lo, hi := vals[0].Str(), vals[n-1].Str()
		return []value.Value{value.String(""), value.String(lo), vals[n/2], value.String(hi), value.String(hi + "~")}
	case value.KindFloat:
		return []value.Value{value.Float(-1), value.Float(0), value.Float(10.25), value.Float(1e9), value.Float(math.NaN())}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Int() < vals[j].Int() })
	lo, hi := vals[0].Int(), vals[n-1].Int()
	return []value.Value{value.Int(lo - 1), value.Int(lo), vals[n/2], value.Int(hi), value.Int(hi + 1)}
}

// zonePredicates is every operator against every literal, plus the other
// leaf kinds on the column: bands, IN / NOT IN (also with a NULL and with a
// literal of another kind), and LIKE / NOT LIKE on strings.
func zonePredicates(zc zoneColumn, lits []value.Value) []predicate.Predicate {
	ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
	var ps []predicate.Predicate
	for _, op := range ops {
		for _, lit := range lits {
			ps = append(ps, predicate.NewComparison("c", op, lit))
		}
	}
	for i := range lits {
		for j := i; j < len(lits); j++ {
			ps = append(ps,
				predicate.NewAnd(predicate.NewComparison("c", predicate.Ge, lits[i]), predicate.NewComparison("c", predicate.Le, lits[j])),
				predicate.NewAnd(predicate.NewComparison("c", predicate.Lt, lits[j]), predicate.NewComparison("c", predicate.Gt, lits[i])))
		}
	}
	if zc.kind == value.KindFloat {
		return ps
	}
	ps = append(ps,
		predicate.NewIn("c", lits[1], lits[2]),
		predicate.NewIn("c", lits[0], lits[4]),
		predicate.NewNotIn("c", lits[1], lits[2]),
		predicate.NewNotIn("c", lits[0], lits[4]),
		predicate.NewNotIn("c", lits[0], value.Null),
		predicate.NewIn("c", lits[2], value.Null),
	)
	if zc.kind == value.KindInt {
		ps = append(ps, predicate.NewIn("c", value.Float(float64(lits[2].Int()))), predicate.NewNotIn("c", value.Float(float64(lits[2].Int()))))
	} else {
		ps = append(ps, predicate.NewLike("c", "v0%"), predicate.NewLike("c", "zz%"), predicate.NewLike("c", "%1"),
			predicate.NewNotLike("c", "v0%"), predicate.NewLike("c", "sa%"))
	}
	return ps
}

// TestZoneDecidedLeaves is the zone-decision matrix: every operator (and
// band, IN and LIKE leaf) decided true, decided false and undecided, over
// no nulls, some nulls and an all-null column, on every page encoding —
// NaN floats included. Each mask must equal FillMask's, and a decided
// leaf must read no page body.
func TestZoneDecidedLeaves(t *testing.T) {
	const n = 150
	tris := []predicate.Tri{predicate.TriFalse, predicate.TriMaybe, predicate.TriTrue}
	for _, zc := range zoneColumns {
		for _, nc := range zoneNulls {
			tab, ts, eb := zoneBlock(t, zc, nc.null, n)
			kindOf := func(string) (value.Kind, bool) { return zc.kind, true }
			seen := map[predicate.Op]map[predicate.Tri]bool{}
			for _, p := range zonePredicates(zc, zoneLiterals(zc, n)) {
				node := predicate.CompileScan(p, kindOf)
				want := make([]uint64, (n+63)/64)
				predicate.FillMask(p, tab, want)
				sc := getScratch()
				v := ts.newVisit(eb, n, sc)
				tri := v.decide(node)
				got := make([]uint64, len(want))
				err := v.eval(node, got)
				decodes := v.release()
				putScratch(sc)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", zc.name, nc.name, p, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: %s (zone %v): got %x, want %x", zc.name, nc.name, p, tri, got, want)
				}
				if tri != predicate.TriMaybe && decodes != 0 {
					t.Errorf("%s/%s: %s decided %v but decoded %d pages", zc.name, nc.name, p, tri, decodes)
				}
				if cmp, isCmp := p.(*predicate.Comparison); isCmp {
					if seen[cmp.Op] == nil {
						seen[cmp.Op] = map[predicate.Tri]bool{}
					}
					seen[cmp.Op][tri] = true
				}
			}
			// Every operator reached every decision the zone allows.
			for op, got := range seen {
				for _, tri := range tris {
					want := true
					switch {
					case zc.kind == value.KindFloat: // never decided; a NaN literal is the constant false
						want = tri != predicate.TriTrue
					case nc.name == "all-null": // Empty zone: nothing matches
						want = tri == predicate.TriFalse
					case zc.point: // a one-value zone decides every comparison
						want = tri != predicate.TriMaybe
					case op == predicate.Eq:
						want = tri != predicate.TriTrue
					case op == predicate.Ne:
						want = tri != predicate.TriFalse
					}
					if got[tri] != want {
						t.Errorf("%s/%s: %s reached %v: %v, want %v", zc.name, nc.name, op, tri, got[tri], want)
					}
				}
			}
		}
	}
}

// TestScanDecodesPageOncePerVisit pins the visit slot: k undecided leaves
// on one column across m alias programs decode its page once per block
// visit, a column pair under two aliases decodes each of its two pages
// once, and a decided leaf decodes nothing.
func TestScanDecodesPageOncePerVisit(t *testing.T) {
	tab := scanTable(t, 200)
	n := tab.NumRows()
	cmp := func(col string, op predicate.Op, lit int64) predicate.Predicate {
		return predicate.NewComparison(col, op, value.Int(lit))
	}
	pair := &predicate.ColumnComparison{Left: "i_for", Op: predicate.Lt, Right: "i_delta"}
	for _, tc := range []struct {
		name                     string
		progs                    []predicate.Predicate
		leaves, decided, decodes int64
	}{
		{"k leaves x m aliases", []predicate.Predicate{
			predicate.NewOr(cmp("i_for", predicate.Lt, 150), cmp("i_for", predicate.Eq, 211), cmp("i_for", predicate.Ge, 300)),
			predicate.NewOr(cmp("i_for", predicate.Gt, 390), predicate.NewIn("i_for", value.Int(100), value.Int(250))),
			cmp("i_for", predicate.Ne, 137),
		}, 6, 0, 1},
		{"pair under two aliases", []predicate.Predicate{pair, predicate.NewOr(pair, cmp("i_for", predicate.Le, 200))}, 3, 0, 2},
		{"decided", []predicate.Predicate{cmp("i_for", predicate.Gt, 1000), cmp("i_for", predicate.Ge, 100)}, 2, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := installScanTable(t, openByteSource(t, "mem", 0), tab, [][]int32{seq32(0, n)})
			scan := s.CompileScan("sc", tc.progs).(*TableScan)
			masks := make([][]uint64, len(tc.progs))
			for i := range masks {
				masks[i] = make([]uint64, (n+63)/64)
			}
			before := s.Stats()
			if _, err := scanRowMasks(scan, 0, masks); err != nil {
				t.Fatal(err)
			}
			d := s.Stats().Sub(before)
			if d.ScanLeaves != tc.leaves || d.ScanLeavesZoneDecided != tc.decided || d.ScanPageDecodes != tc.decodes {
				t.Errorf("leaves/decided/decodes = %d/%d/%d, want %d/%d/%d",
					d.ScanLeaves, d.ScanLeavesZoneDecided, d.ScanPageDecodes, tc.leaves, tc.decided, tc.decodes)
			}
			for i, p := range tc.progs {
				want := make([]uint64, len(masks[i]))
				predicate.FillMask(p, tab, want)
				if !reflect.DeepEqual(masks[i], want) {
					t.Errorf("%s: got %x, want %x", p, masks[i], want)
				}
			}
		})
	}
}
