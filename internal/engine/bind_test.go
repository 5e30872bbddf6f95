package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/datagen"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/workload"
)

// TestBindCompilesEachFilterOnce pins the one bound plan on an MTO layout
// of TPC-H, whose qd-trees hold induced cuts: Execute and
// ExecuteReference (execute with either executor) run a query from the
// zones its one bind compiled, one per alias, and every reader of a
// filter's zone reads those. The design's routers are wrapped to record
// the zones they are handed and to tell the evaluations made while a
// table is routed from the rest, which are the zone step's: a
// single-alias table's zone is evaluated once per routed candidate block
// outside routing, and induced cuts evaluate the zones of other tables'
// aliases while a table is routed.
func TestBindCompilesEachFilterOnce(t *testing.T) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.005, Seed: 1})
	w := datagen.TPCHWorkload(2, 1)
	opt, err := core.Optimize(ds, w, core.Options{BlockSize: 200, SampleRate: 0.5, JoinInduction: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := opt.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	routing := "" // the table being routed
	var routed []map[string]*predicate.Zone
	d := layout.NewDesign("recorded", base.BlockSize)
	for _, name := range base.Tables() {
		tree := opt.Tree(name)
		d.SetTable(ds.Table(name), base.Table(name).Groups(), func(q *workload.Query, zones map[string]*predicate.Zone) []int {
			routing, routed = name, append(routed, zones)
			defer func() { routing = "" }()
			return tree.Route(q, zones)
		})
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	e := New(store, d, ds, CloudDWOptions())

	ownEvals, sourceEvals := 0, 0
	for _, q := range w.Queries {
		for _, executor := range []func(*boundQuery) (*Result, error){e.executeKernel, e.executeReference} {
			var b *boundQuery
			var inRoute, outside []int
			routed = nil
			res, err := e.execute(q, func(bq *boundQuery) (*Result, error) {
				b, inRoute, outside = bq, make([]int, len(bq.aliases)), make([]int, len(bq.aliases))
				for _, a := range b.aliases {
					a := a
					eval := a.zone.Eval
					a.zone.Eval = func(r predicate.Ranges) predicate.Tri {
						switch routing {
						case "":
							outside[a.idx]++
						case a.ts.table:
							inRoute[a.idx]++
						default:
							sourceEvals++
						}
						return eval(r)
					}
				}
				return executor(bq)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(b.zones) != len(b.aliases) || len(routed) != len(b.tables) {
				t.Fatalf("%s: %d zones for %d aliases, %d tables routed of %d", q.ID, len(b.zones), len(b.aliases), len(routed), len(b.tables))
			}
			for _, zones := range routed {
				for _, a := range b.aliases {
					if zones[a.name] != a.zone {
						t.Fatalf("%s: the router got another zone for %s than bind compiled", q.ID, a.name)
					}
				}
			}
			for _, a := range b.aliases {
				ownEvals += inRoute[a.idx]
				if n := res.PerTable[a.ts.table].AfterRouting; len(a.ts.aliases) == 1 && outside[a.idx] != n {
					t.Errorf("%s: the zone step read %s's zone %d times over %d routed blocks", q.ID, a.name, outside[a.idx], n)
				}
			}
		}
	}
	if ownEvals == 0 || sourceEvals == 0 {
		t.Errorf("simple cuts read %d zones of the routed table's aliases, induced cuts %d of other tables'", ownEvals, sourceEvals)
	}
}

// TestNoNameLookupAfterBind: only bind.go resolves a column name against
// a schema; every later stage reads ordinals.
func TestNoNameLookupAfterBind(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "bind.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Schema", "ColumnIndex", "MustColumnIndex", "Ordinal":
						t.Errorf("%s: %s outside bind", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
