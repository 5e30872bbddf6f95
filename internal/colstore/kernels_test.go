package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// TestUnpackBitsMatchesUnpackAt checks the group-of-eight unpack paths
// against random access for every width and every length up to 130, on
// payloads sized exactly as the page reader validates them: a fast path
// that loads a byte past the payload panics here.
func TestUnpackBitsMatchesUnpackAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 0; width <= 64; width++ {
		for count := 0; count <= 130; count++ {
			vals := make([]uint64, count)
			for i := range vals {
				vals[i] = rng.Uint64() & (1<<uint(width) - 1) // all bits at 64
			}
			packed := packBits(vals, width)
			if len(packed) != (count*width+7)/8 {
				t.Fatalf("width %d count %d: payload %d bytes", width, count, len(packed))
			}
			got := make([]uint64, count)
			unpackBitsInto(got, packed, width)
			for i, want := range vals {
				if at := unpackAt(packed, i, width); got[i] != want || at != want {
					t.Fatalf("width %d count %d: element %d unpacks to %#x, unpackAt %#x, want %#x", width, count, i, got[i], at, want)
				}
			}
		}
	}
}

// TestLeafKernelsAtWordBoundaries runs every code kernel (FOR bands and
// comparisons, the FOR member set, dictionary bands and member sets, and
// the raw-page loops) over pages whose row counts straddle the 64-row
// mask words, against FillMask.
func TestLeafKernelsAtWordBoundaries(t *testing.T) {
	ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000} {
		tab := relation.NewTable(relation.MustSchema("kb",
			relation.Column{Name: "i", Type: value.KindInt},
			relation.Column{Name: "s", Type: value.KindString},
			relation.Column{Name: "r", Type: value.KindString},
		))
		for k := 0; k < n; k++ {
			i := value.Value(value.Int(int64(10 + k*7%23)))
			if k%13 == 5 {
				i = value.Null
			}
			tab.MustAppendRow(i, value.String(fmt.Sprintf("ab%d", k*5%9)), value.String(fmt.Sprintf("r%04d", k)))
		}
		var preds []predicate.Predicate
		for _, op := range ops {
			for _, lit := range []int64{9, 10, 21, 32, 33} {
				preds = append(preds, predicate.NewComparison("i", op, value.Int(lit)))
			}
			for _, lit := range []string{"ab", "ab0", "ab4", "ab8", "ab9"} {
				preds = append(preds, predicate.NewComparison("s", op, value.String(lit)))
			}
			preds = append(preds, predicate.NewComparison("r", op, value.String("r0064")),
				&predicate.ColumnComparison{Left: "s", Op: op, Right: "r"})
		}
		between := func(col string, lo, hi value.Value) predicate.Predicate {
			return predicate.NewAnd(predicate.NewComparison(col, predicate.Ge, lo), predicate.NewComparison(col, predicate.Le, hi))
		}
		preds = append(preds,
			between("i", value.Int(12), value.Int(20)),
			predicate.NewOr(between("i", value.Int(10), value.Int(12)), between("i", value.Int(13), value.Int(15)), between("i", value.Int(30), value.Int(40))),
			predicate.NewIn("i", value.Int(10), value.Int(17), value.Int(32), value.Int(math.MaxInt64)),
			predicate.NewNotIn("i", value.Int(10), value.Int(17), value.Int(-1)),
			between("s", value.String("ab2"), value.String("ab6")),
			predicate.NewIn("s", value.String("ab1"), value.String("ab7")),
			predicate.NewNotLike("s", "%3"),
			between("r", value.String("r0010"), value.String("r0070")),
			predicate.NewIn("r", value.String("r0063"), value.String("r0064")),
			predicate.NewLike("r", "r00_5"),
		)
		for _, p := range preds {
			checkPageIdentity(t, tab, p)
		}
	}
}

// BenchmarkLeafKernels times one undecided leaf over a fresh 1000-row FOR
// page per op, by code width: the unpack plus a band (BETWEEN) or a member
// probe (IN). ns/row is per row of the page.
func BenchmarkLeafKernels(b *testing.B) {
	const n = 1000
	for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16} {
		rng := rand.New(rand.NewSource(int64(width)))
		tab := relation.NewTable(relation.MustSchema("lk", relation.Column{Name: "c", Type: value.KindInt}))
		top := int64(1)<<uint(width) - 1
		tab.MustAppendRow(value.Int(0))
		tab.MustAppendRow(value.Int(top))
		for k := 2; k < n; k++ {
			tab.MustAppendRow(value.Int(rng.Int63n(top + 1)))
		}
		ts, eb := pageScan(tab)
		eb.Block.Zone = nil // every leaf runs its kernel
		leaves := map[string]predicate.Predicate{
			"band": predicate.NewAnd(predicate.NewComparison("c", predicate.Ge, value.Int(top/4)),
				predicate.NewComparison("c", predicate.Le, value.Int(top/2))),
			"in": predicate.NewIn("c", value.Int(0), value.Int(top/3), value.Int(top/2), value.Int(top)),
		}
		for _, name := range []string{"band", "in"} {
			node := predicate.CompileScan(leaves[name], tab.Schema())
			b.Run(fmt.Sprintf("w%d/%s", width, name), func(b *testing.B) {
				sc := getScratch()
				defer putScratch(sc)
				out := make([]uint64, (n+63)/64)
				for i := 0; i < b.N; i++ {
					clear(out)
					if err := evalOnce(ts, node, eb, n, out, sc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
