package main

import (
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// toyConfig is every workload at SF 0.005 with a counted prefix of 100
// queries per client and a tenth of a second to run on past it, so the whole
// file runs in a few seconds.
func toyConfig(seed int64) runConfig {
	return runConfig{seed: seed, seconds: 0.1, clients: 2, counted: 100, sf: 0.005, setups: 1}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, what string, decls []metricDecl, got map[string]metric) {
	t.Helper()
	var want, have []string
	for _, d := range decls {
		want = append(want, d.Name)
	}
	for name, m := range got {
		have = append(have, name)
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is not a valid name", what, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", what, name, m.Value)
		}
	}
	sort.Strings(want)
	sort.Strings(have)
	if len(want) != len(have) {
		t.Fatalf("%s: emitted %d metrics %v, BENCHMARK.json declares %d %v", what, len(have), have, len(want), want)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("%s: emitted metric %q where BENCHMARK.json declares %q", what, have[i], want[i])
		}
	}
}

// TestSmoke runs all four workloads, timed and traced, at toy scale and
// checks that what they emit is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(man.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if man.Workloads[i].Name != s.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, man.Workloads[i].Name, s.name)
		}
	}
	out := t.TempDir()
	sc := &scratch{root: filepath.Join(out, "tmp")}
	defer sc.removeAll()
	cfg := toyConfig(1)
	digest := map[string]string{}
	for _, s := range specs() {
		timed, err := runTimed(s, cfg, man, sc, nil)
		if err != nil {
			t.Fatalf("%s timed: %v", s.name, err)
		}
		checkMetrics(t, s.name+" timed", man.EndToEnd, timed.Metrics)
		if timed.Failed != 0 || !timed.Correct || timed.Attempted < cfg.clients*cfg.counted {
			t.Errorf("%s timed: attempted %d, failed %d, notes %v", s.name, timed.Attempted, timed.Failed, timed.Notes)
		}
		// Block counts cover the counted prefix only, whatever ran after it.
		if n := timed.Metrics["blocks_read_frac"].N; n != cfg.clients*cfg.counted {
			t.Errorf("%s timed: blocks_read_frac counts %d queries, want the %d of the prefix", s.name, n, cfg.clients*cfg.counted)
		}
		digest[s.name] = timed.Digest
		if timed.Verified == 0 {
			t.Errorf("%s timed: no served query was verified against ExecuteDirect", s.name)
		}
		for _, m := range []string{"setup_s", "queries_per_s", "query_p50_ms", "blocks_read_frac", "segment_bytes_per_row"} {
			if timed.Metrics[m].Value <= 0 {
				t.Errorf("%s timed: %s = %v, want > 0", s.name, m, timed.Metrics[m].Value)
			}
		}
		if len(s.stepAt) > 0 && timed.Metrics["write_amplification"].Value <= 1 {
			t.Errorf("%s timed: write_amplification %v, want a reorganization to have written blocks", s.name, timed.Metrics["write_amplification"].Value)
		}

		traced, err := runTraced(s, cfg, man, sc, out)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		checkMetrics(t, s.name+" traced", man.PerLayer, traced.Metrics)
		if traced.Failed != 0 {
			t.Errorf("%s traced: failed %d, notes %v", s.name, traced.Failed, traced.Notes)
		}
		if len(s.stepAt) > 0 && traced.Metrics["serve.swaps"].Value < 1 {
			t.Errorf("%s traced: no generation swap installed", s.name)
		}
	}
	if digest["tpch_cold"] == "" || digest["tpch_cold"] != digest["tpch_warm"] {
		t.Errorf("tpch_cold and tpch_warm answer the same queries but their digests are %q and %q", digest["tpch_cold"], digest["tpch_warm"])
	}
}

// TestRunsPastPrefix checks the time bound: with cached microsecond
// replies the prefix is over long before the time is, and the clients keep
// going.
func TestRunsPastPrefix(t *testing.T) {
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := specByName("tenants_hot")
	sc := &scratch{root: filepath.Join(t.TempDir(), "tmp")}
	defer sc.removeAll()
	cfg := toyConfig(1)
	cfg.seconds = 0.3
	res, err := runTimed(s, cfg, man, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted <= 4*cfg.clients*cfg.counted || res.Failed != 0 {
		t.Errorf("attempted %d (prefix %d), failed %d, notes %v", res.Attempted, cfg.clients*cfg.counted, res.Failed, res.Notes)
	}
}

// TestDigest checks the digest is a function of the seed alone, on the
// workload where the layout changes under the queries.
func TestDigest(t *testing.T) {
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := specByName("drift_reorg")
	sc := &scratch{root: filepath.Join(t.TempDir(), "tmp")}
	defer sc.removeAll()
	digest := func(seed int64) string {
		res, err := runTimed(s, toyConfig(seed), man, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("two runs of seed 1 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}
