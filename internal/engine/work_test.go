package engine_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mto/internal/engine"
	"mto/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/work.json from this run")

// workRow is one query's work under one engine option set: the pruning
// funnel and reads per table, the survivors, the simulated seconds (which
// carry the join probes and reducers charged), and the row-order fold
// rows and store bytes the query added.
type workRow struct {
	Bench                string               `json:"bench"`
	Options              string               `json:"options"`
	Query                string               `json:"query"`
	Tables               map[string]tableWork `json:"tables"`
	SurvivingRows        map[string]int       `json:"surviving_rows"`
	Seconds              float64              `json:"seconds"`
	MaterializedFoldRows int64                `json:"materialized_fold_rows"`
	BytesRead            int64                `json:"bytes_read"`
}

type tableWork struct {
	AfterRouting int `json:"after_routing"`
	AfterZoneMap int `json:"after_zone_map"`
	AfterDiPs    int `json:"after_dips"`
	BlocksRead   int `json:"blocks_read"`
	RowsScanned  int `json:"rows_scanned"`
}

const workFile = "testdata/work.json"

// TestGoldenWork executes every SSB, TPC-H and TPC-DS query of the
// identity scale on an MTO layout (qd-tree routing with induced cuts)
// with DefaultOptions, with CloudDWOptions and with CloudDWOptions plus
// diPs, each option set in a fixed order on a freshly deployed store (so
// a query's bytes read are the pages it is the first to load), and
// compares each query's work counters with testdata/work.json. Counters
// are exact where wall clock is noise: a change that moves staging,
// pruning, reduction charges or fold routes shows here even when it moves
// Execute and ExecuteReference alike. -update rewrites the file.
func TestGoldenWork(t *testing.T) {
	var rows []workRow
	withDiPs := engine.CloudDWOptions()
	withDiPs.DiPs = true
	s := identityScale()
	for _, bench := range []*experiments.Bench{
		experiments.SSBBench(s), experiments.TPCHBench(s), experiments.TPCDSBench(s),
	} {
		for _, o := range []struct {
			name string
			opts engine.Options
		}{{"default", engine.DefaultOptions()}, {"cloudDW", engine.CloudDWOptions()}, {"cloudDW+diPs", withDiPs}} {
			d, err := experiments.DeployMethod(bench, experiments.MethodMTO, false)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New(d.Store, d.Design, bench.Dataset, o.opts)
			for _, q := range bench.Workload.Queries {
				stats, store := e.StatsSnapshot(), d.Store.Stats()
				res, err := e.Execute(q)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", bench.Name, o.name, q.ID, err)
				}
				row := workRow{
					Bench: bench.Name, Options: o.name, Query: q.ID,
					Tables:               map[string]tableWork{},
					SurvivingRows:        res.SurvivingRows,
					Seconds:              res.Seconds,
					MaterializedFoldRows: e.StatsSnapshot().Sub(stats).MaterializedFoldRows,
					BytesRead:            d.Store.Stats().BytesRead - store.BytesRead,
				}
				for name, ta := range res.PerTable {
					row.Tables[name] = tableWork{ta.AfterRouting, ta.AfterZoneMap, ta.AfterDiPs, ta.BlocksRead, ta.RowsScanned}
				}
				rows = append(rows, row)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := encodeWork(t, rows)
	if *update {
		if err := os.MkdirAll(filepath.Dir(workFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	moved := 0
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			if moved++; moved <= 20 {
				t.Errorf("work moved:\n got %s\nwant %s", g, w)
			}
		}
	}
	t.Errorf("%d of %d rows moved from %s (-update rewrites it)", moved, len(rows), workFile)
}

// encodeWork renders rows as a JSON array, one row per line, so a moved
// counter shows as one changed line.
func encodeWork(t *testing.T, rows []workRow) []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		if i < len(rows)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}
