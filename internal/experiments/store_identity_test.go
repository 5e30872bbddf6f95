package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	defer d.Close()
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
// disk), and at any replay parallelism. It is one store and one read path;
// only the io.ReaderAt under it and the pool's residency differ.
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

// TestHarnessClosesDiskStores: a harness closes every deployment it builds
// and drops, so a run over disk stores leaves no segment file of its data
// directory open.
func TestHarnessClosesDiskStores(t *testing.T) {
	const fdDir = "/proc/self/fd"
	if _, err := os.ReadDir(fdDir); err != nil {
		t.Skipf("no %s: %v", fdDir, err)
	}
	b := SSBBench(testScale())
	b.Store, b.DataDir, b.CacheMB = "disk", t.TempDir(), 1
	if _, err := Fig10a([]*Bench{b}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig10bc([]*Bench{b}); err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir(fdDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join(fdDir, fd.Name()))
		if err == nil && strings.HasPrefix(target, b.DataDir) {
			t.Errorf("fd %s still open on %s", fd.Name(), target)
		}
	}
}
