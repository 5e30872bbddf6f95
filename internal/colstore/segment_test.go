package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/zonemap"
)

// mixedTable builds a table exercising every column kind plus nulls: an
// int column with scattered nulls, a float column, a low-cardinality
// string column (dictionary-coded on disk), and an all-NULL column.
func mixedTable(t testing.TB, n int) *relation.Table {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("mix",
		relation.Column{Name: "i", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "allnull", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		iv := value.Int(int64(i * 7 % 50))
		if i%5 == 0 {
			iv = value.Null
		}
		tab.MustAppendRow(
			iv,
			value.Float(float64(i)*0.5),
			value.String(fmt.Sprintf("s%d", i%4)),
			value.Null,
		)
	}
	return tab
}

func seq32(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

// mixedLayout chops mixedTable into out-of-order groups so block row IDs
// are non-trivial.
func mixedLayout(t testing.TB, tab *relation.Table) *block.TableLayout {
	t.Helper()
	n := tab.NumRows()
	var groups [][]int32
	switch {
	case n == 0:
	case n < 4:
		groups = [][]int32{seq32(0, n)}
	default:
		groups = [][]int32{seq32(n/2, n), seq32(0, n/2)}
	}
	tl, err := block.NewTableLayout(tab, groups, 16)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// layoutZones lists tl's zone maps by block ID, the shape footers restore.
func layoutZones(tl *block.TableLayout) []*zonemap.ZoneMap {
	zones := make([]*zonemap.ZoneMap, tl.NumBlocks())
	for i, b := range tl.Blocks() {
		zones[i] = b.Zone
	}
	return zones
}

func writeMixedSegment(t testing.TB, n int) (string, *relation.Table, *block.TableLayout) {
	t.Helper()
	tab := mixedTable(t, n)
	tl := mixedLayout(t, tab)
	path := filepath.Join(t.TempDir(), "mix-00000001.seg")
	if err := WriteSegment(path, tl); err != nil {
		t.Fatal(err)
	}
	return path, tab, tl
}

func TestSegmentRoundTrip(t *testing.T) {
	path, tab, tl := writeMixedSegment(t, 100)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	if seg.Table() != "mix" || seg.TotalRows() != 100 || seg.NumBlocks() != tl.NumBlocks() {
		t.Fatalf("metadata: table=%q rows=%d blocks=%d", seg.Table(), seg.TotalRows(), seg.NumBlocks())
	}
	// Zone maps reconstructed from the footer match the in-memory ones
	// exactly — same intervals, same inclusivity, same row counts.
	if !reflect.DeepEqual(seg.Zones(), layoutZones(tl)) {
		t.Error("footer zone maps differ from in-memory zone maps")
	}
	if !seg.Zones()[0].Ranges().At(tab.Schema().MustColumnIndex("allnull")).Empty {
		t.Error("all-NULL column should round-trip as an Empty interval")
	}
	if err := seg.ValidateAgainst(tab.Schema()); err != nil {
		t.Fatal(err)
	}
	wrong := relation.MustSchema("mix", relation.Column{Name: "other", Type: value.KindInt})
	if err := seg.ValidateAgainst(wrong); err == nil {
		t.Error("mismatched schema accepted")
	}

	for id := 0; id < seg.NumBlocks(); id++ {
		want := tl.Block(id)
		rows, n, err := seg.ReadRowIDs(id)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 || !reflect.DeepEqual(rows, want.Rows) {
			t.Fatalf("block %d: row IDs differ", id)
		}
		bd, err := readBlockData(seg, id)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Bytes <= 0 || bd.Block.ID != id || !reflect.DeepEqual(bd.Block.Rows, want.Rows) {
			t.Fatalf("block %d: bytes=%d id=%d", id, bd.Bytes, bd.Block.ID)
		}
		if !reflect.DeepEqual(bd.Block.Zone, want.Zone) {
			t.Fatalf("block %d: zone differs", id)
		}
		for ci := 0; ci < tab.Schema().NumColumns(); ci++ {
			col := bd.Cols[ci]
			if col.Kind != tab.Schema().Column(ci).Type {
				t.Fatalf("block %d col %d: kind %v", id, ci, col.Kind)
			}
			for j, r := range want.Rows {
				if got, wantNull := col.Nulls != nil && col.Nulls[j], tab.IsNullAt(int(r), ci); got != wantNull {
					t.Fatalf("block %d col %d row %d: null=%v want %v", id, ci, j, got, wantNull)
				}
				switch col.Kind {
				case value.KindInt:
					if col.Ints[j] != tab.Ints(ci)[r] {
						t.Fatalf("block %d col %d row %d: int differs", id, ci, j)
					}
				case value.KindFloat:
					if col.Floats[j] != tab.Floats(ci)[r] {
						t.Fatalf("block %d col %d row %d: float differs", id, ci, j)
					}
				case value.KindString:
					if col.Strs[j] != tab.Strings(ci)[r] {
						t.Fatalf("block %d col %d row %d: string differs", id, ci, j)
					}
				}
			}
		}
	}
}

func TestSegmentEdgeCases(t *testing.T) {
	// Zero-row table → segment with zero blocks.
	path, tab, _ := writeMixedSegment(t, 0)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumBlocks() != 0 || seg.TotalRows() != 0 || len(seg.Zones()) != 0 {
		t.Errorf("empty segment: blocks=%d rows=%d", seg.NumBlocks(), seg.TotalRows())
	}
	if err := seg.ValidateAgainst(tab.Schema()); err != nil {
		t.Error(err)
	}
	seg.Close()

	// Single-row table → one one-row block; row 0 is null in column "i".
	path, _, tl := writeMixedSegment(t, 1)
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NumBlocks() != 1 || seg.BlockRows(0) != 1 {
		t.Fatalf("single-row segment: blocks=%d", seg.NumBlocks())
	}
	bd, err := readBlockData(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bd.Block.Rows, []int32{0}) || !bd.Cols[0].Nulls[0] {
		t.Error("single-row block content wrong")
	}
	if !reflect.DeepEqual(seg.Zones(), layoutZones(tl)) {
		t.Error("single-row zones differ")
	}
}

// tryBytes writes data as a segment file and attempts a full read of it,
// returning the first error encountered. Used by the corruption sweep: any
// return is fine, a panic is the failure mode under test.
func tryBytes(t *testing.T, data []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad-00000001.seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		return err
	}
	defer seg.Close()
	for id := 0; id < seg.NumBlocks(); id++ {
		if _, _, err := seg.ReadRowIDs(id); err != nil {
			return err
		}
		if _, err := readBlockData(seg, id); err != nil {
			return err
		}
	}
	return nil
}

func TestSegmentCorruption(t *testing.T) {
	path, _, _ := writeMixedSegment(t, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tryBytes(t, data); err != nil {
		t.Fatalf("pristine bytes rejected: %v", err)
	}
	// Every truncation must fail cleanly — header, pages, footer, trailer.
	for cut := 0; cut < len(data); cut++ {
		if tryBytes(t, data[:cut]) == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	// Every single-byte flip is caught by a magic/version/length check or a
	// crc32 mismatch, with a wrapped error naming the failing piece.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		err := tryBytes(t, mut)
		if err == nil {
			t.Fatalf("byte flip at %d/%d accepted", i, len(data))
		}
		if !strings.Contains(err.Error(), "colstore:") {
			t.Fatalf("byte flip at %d: unwrapped error %v", i, err)
		}
	}
}

func TestSegmentBadHeader(t *testing.T) {
	path, _, _ := writeMixedSegment(t, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	copy(bad, []byte("NOPE"))
	if err := tryBytes(t, bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[4] = 99 // unsupported version
	if err := tryBytes(t, bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
}

func FuzzOpenSegment(f *testing.F) {
	path, _, _ := writeMixedSegment(f, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz-00000001.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		seg, err := OpenSegment(p)
		if err != nil {
			return // rejection is fine; panics and hangs are the bugs
		}
		defer seg.Close()
		for id := 0; id < seg.NumBlocks(); id++ {
			seg.ReadRowIDs(id)
			readBlockData(seg, id)
		}
	})
}
