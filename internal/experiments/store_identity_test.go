package experiments

import (
	"io"
	"reflect"
	"testing"
)

// replayWith deploys MTO on b with the given store configuration and
// replays the workload, returning the result with the wall-clock offline
// timings zeroed (they are measured, not simulated, so they legitimately
// vary run to run — everything else must not).
func replayWith(t *testing.T, b *Bench, method string, cloudDW bool, store string, cacheMB, parallel int, datadir string) *RunResult {
	t.Helper()
	b.Store, b.CacheMB, b.Parallel, b.DataDir = store, cacheMB, parallel, datadir
	return deployAndReplay(t, b, method, cloudDW)
}

func deployAndReplay(t *testing.T, b *Bench, method string, cloudDW bool) *RunResult {
	t.Helper()
	d, err := DeployMethod(b, method, cloudDW)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := d.Store.(io.Closer); ok {
		defer c.Close()
	}
	res, err := Replay(b, d, cloudDW)
	if err != nil {
		t.Fatal(err)
	}
	res.OptimizeSeconds, res.RoutingSeconds = 0, 0
	return res
}

// TestDiskBackendReplayIdentity is the where-the-bytes-live matrix:
// replaying SSB and TPC-H must produce exactly the same Results — same
// blocks, fractions, simulated seconds, and per-query metrics — whether the
// segments are held in RAM or in files, at any cache size in front of the
// files (including a 0-byte cache, where every read fetches pages from
// disk and readahead is off), and at any replay parallelism. It is one
// store and one read path; only the io.ReaderAt under it and the pool's
// residency differ.
func TestDiskBackendReplayIdentity(t *testing.T) {
	s := testScale()
	for _, mk := range []struct {
		name    string
		bench   func(Scale) *Bench
		method  string
		cloudDW bool
	}{
		{"ssb", SSBBench, MethodMTO, false},
		{"tpch", TPCHBench, MethodMTO, false},
		// The jittered-install Cloud DW mode consumes a shared rng during
		// deployment; it must yield the same layout — and hence the same
		// replay — in every configuration too.
		{"ssb-clouddw", SSBBench, MethodBaseline, true},
	} {
		t.Run(mk.name, func(t *testing.T) {
			b := mk.bench(s)
			dir := t.TempDir()
			want := replayWith(t, b, mk.method, mk.cloudDW, "mem", 0, 1, "")
			configs := []struct {
				name     string
				store    string
				cacheMB  int
				parallel int
			}{
				{name: "ram-parallel", store: "mem", parallel: 0},
				{name: "file-nocache-seq", store: "disk", cacheMB: 0, parallel: 1},
				{name: "file-nocache-parallel", store: "disk", cacheMB: 0, parallel: 0},
				{name: "file-cached-seq", store: "disk", cacheMB: 64, parallel: 1},
				{name: "file-cached-parallel", store: "disk", cacheMB: 64, parallel: 0},
			}
			for _, c := range configs {
				b.Store, b.CacheMB, b.Parallel, b.DataDir = c.store, c.cacheMB, c.parallel, dir
				got := deployAndReplay(t, b, mk.method, mk.cloudDW)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: results diverge from the sequential RAM replay\n got: %+v\nwant: %+v",
						c.name, got, want)
				}
			}
		})
	}
}
